"""CLI exit-code contract: malformed inputs exit 2 or 3 with a JSON error record."""

import json

import pytest

from patchcert import cli
from patchcert.vit import Model, ViTConfig, save_checkpoint

CFG = ViTConfig(h=16, w=16, c=1, p=4, d=8, heads=2, layers=1, k=4)


@pytest.fixture
def files(tmp_path):
    good = tmp_path / "good.svit"
    save_checkpoint(Model.init(CFG, seed=0), good)
    blob = good.read_bytes()
    contents = {
        "trunc6.svit": blob[:6],
        "trunc20.svit": blob[:20],
        "short_tensor.svit": blob[:-3],
        "trailing.svit": blob + b"\0\0\0\0",
        "magic.svit": b"XXXX" + blob[4:],
        "empty.svit": b"",
        "bad.json": b"{not json",
        "list.json": b"[1, 2]",
        "binary.json": b"\xff\xfe\x00",
        "cifar.bin": b"\0" * 100,
        "idx.bin": b"\1\2\3\4",
    }
    for name, data in contents.items():
        (tmp_path / name).write_bytes(data)
    return tmp_path


CASES = [
    # missing or corrupt input: 2
    (["certify", "--ckpt", "missing.svit"], 2),
    (["certify", "--ckpt", "trunc6.svit"], 2),
    (["certify", "--ckpt", "trunc20.svit"], 2),
    (["certify", "--ckpt", "short_tensor.svit"], 2),
    (["certify", "--ckpt", "trailing.svit"], 2),
    (["certify", "--ckpt", "magic.svit"], 2),
    (["certify", "--ckpt", "empty.svit"], 2),
    (["certify", "--ckpt", "good.svit", "--config", "missing.json"], 2),
    (["certify", "--ckpt", "good.svit", "--data-format", "cifar10", "--data", "cifar.bin"], 2),
    (["certify", "--ckpt", "good.svit", "--data-format", "idx", "--data", "idx.bin",
      "--labels", "idx.bin"], 2),
    # invalid parameter: 3
    (["certify", "--ckpt", "good.svit", "--config", "bad.json"], 3),
    (["certify", "--ckpt", "good.svit", "--config", "list.json"], 3),
    (["certify", "--ckpt", "good.svit", "--config", "binary.json"], 3),
    (["certify", "--ckpt", "good.svit", "--patch-sizes", "a,b"], 3),
    (["certify", "--ckpt", "good.svit", "--patch-sizes", "99"], 3),
    (["certify", "--ckpt", "good.svit", "--b", "0"], 3),
    (["certify", "--ckpt", "good.svit", "--b", "40"], 3),
    (["certify", "--ckpt", "good.svit", "--stride", "2", "--offset", "5"], 3),
    (["certify", "--ckpt", "good.svit", "--data-format", "cifar10"], 3),
    (["certify", "--ckpt", "good.svit", "--workers", "2"], 3),
    (["certify", "--bogus"], 3),
    (["delta", "--b", "3", "--patch-sizes", "0"], 3),
    (["train", "--epochs", "0"], 3),
    (["sweep", "--ckpt", "good.svit", "--b-grid", "x"], 3),
]


@pytest.mark.parametrize("argv,code", CASES, ids=[" ".join(a) for a, _ in CASES])
def test_malformed_input_exit_code(files, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(files)
    assert cli.main(argv + ["--out", "out"]) == code
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["exit_code"] == code
