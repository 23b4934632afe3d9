"""CLI exit-code contract: malformed inputs exit 2 or 3 with a JSON error record and
write nothing; report names stay pinned; bench builds only what it times."""

import json

import numpy as np
import pytest

from patchcert import ablation, cli
from patchcert.vit import Model, ViTConfig, save_checkpoint

CFG = ViTConfig(h=16, w=16, c=1, p=4, d=8, heads=2, layers=1, k=4)
WIDE = ViTConfig(h=8, w=16, c=1, p=4, d=8, heads=2, layers=1, k=4)


@pytest.fixture
def files(tmp_path):
    good = tmp_path / "good.svit"
    save_checkpoint(Model.init(CFG, seed=0), good)
    save_checkpoint(Model.init(WIDE, seed=0), tmp_path / "wide.svit")
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
        "cifar1.bin": b"\1" + bytes(3072),  # one well-formed record, tagged test
        "b_word.json": b'{"b": "wide"}',
        "index_list.json": b'{"index": [0]}',
        "lr_word.json": b'{"lr": "fast"}',
        "k_word.json": b'{"k": "ten"}',
        "noise_null.json": b'{"stripe_noise": null}',
        "offset_word.json": b'{"offset": "x"}',
        "sizes_words.json": b'{"patch_sizes": ["a"]}',
        "idx.bin": b"\1\2\3\4",
        "kind_diag.json": b'{"kind": "diag"}',
        "mode_x.json": b'{"delta_mode": "x"}',
        "format_x.json": b'{"data_format": "x"}',
        "ckpt_fd.json": b'{"ckpt": 0}',
        "b4.json": b'{"b": 4, "patch_sizes": "2,3"}',
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
    (["certify", "--ckpt", "good.svit", "--stripe-n", "3", "--split", "val"], 3),
    # a block offset at or past the image height leaves no ablation: 3
    (["certify", "--ckpt", "wide.svit", "--stripe-h", "8", "--stripe-w", "16", "--ablation",
      "block", "--b", "4", "--stride", "12", "--offset", "9"], 3),
    (["certify", "--ckpt", "wide.svit", "--stripe-h", "8", "--stripe-w", "16", "--ablation",
      "block", "--b", "4", "--stride", "12", "--offset", "9", "--delta-mode", "paper"], 3),
    (["certify", "--ckpt", "good.svit", "--workers", "2"], 3),
    (["certify", "--bogus"], 3),
    (["delta", "--b", "3", "--patch-sizes", "0"], 3),
    (["delta", "--h", "6", "--w", "13", "--ablation", "block", "--b", "6", "--stride", "11",
      "--offset", "9", "--patch-sizes", "4"], 3),
    # a config value of the wrong type: 3
    (["delta", "--config", "b_word.json"], 3),
    (["delta", "--config", "sizes_words.json"], 3),
    (["certify", "--ckpt", "good.svit", "--config", "b_word.json"], 3),
    (["certify", "--ckpt", "good.svit", "--config", "noise_null.json"], 3),
    (["ablate", "--config", "index_list.json"], 3),
    (["train", "--config", "lr_word.json"], 3),
    (["bench", "--config", "k_word.json"], 3),
    (["sweep", "--ckpt", "good.svit", "--config", "offset_word.json"], 3),
    (["train", "--epochs", "0"], 3),
    (["sweep", "--ckpt", "good.svit", "--b-grid", "x"], 3),
    # a flag the command does not read does not exist, and flags are not abbreviated: 3
    (["train", "--split", "test"], 3),
    (["ablate", "--split", "val"], 3),
    (["bench", "--b", "7"], 3),
    (["sweep", "--ckpt", "good.svit", "--b", "3"], 3),
    # a config value outside its choices fails before any work: 3
    (["train", "--config", "kind_diag.json"], 3),
    (["train", "--config", "format_x.json"], 3),
    (["certify", "--ckpt", "good.svit", "--config", "mode_x.json"], 3),
    (["certify", "--config", "ckpt_fd.json"], 3),
    (["bench", "--batch", "0"], 3),
]


@pytest.mark.parametrize("argv,code", CASES, ids=[" ".join(a) for a, _ in CASES])
def test_malformed_input_exit_code(files, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(files)
    assert cli.main(argv + ["--out", "out"]) == code
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["exit_code"] == code
    assert not (files / "out").exists() or not any((files / "out").iterdir())


def test_empty_split_names_the_splits_present(files, monkeypatch, capsys):
    monkeypatch.chdir(files)
    argv = ["certify", "--ckpt", "good.svit", "--data-format", "cifar10", "--data", "cifar1.bin",
            "--split", "val", "--out", "out"]
    assert cli.main(argv) == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["type"] == "ParameterError"
    assert "'val'" in record["error"] and "splits present: test" in record["error"]


BENCH = ["bench", "--h", "16", "--w", "16", "--c", "1", "--p", "4", "--d", "8", "--heads", "2",
         "--layers", "1", "--k", "3", "--b-grid", "3,5", "--batch", "2", "--trials", "3"]


def test_identical_bench_runs_both_succeed(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(BENCH + ["--out", "out"]) == 0
    assert cli.main(BENCH + ["--out", "out"]) == 0
    reports = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert len(reports) == 3  # one MAC report named by config hash, one timing report per run
    mac = [name for name in reports if name.count("-") == 1]
    assert len(mac) == 1
    rows = (tmp_path / "out" / mac[0]).read_text().splitlines()
    assert rows[1] == "b,stride,n_tokens_mean,macs_drop,macs_full,mac_ratio"
    for name in set(reports) - set(mac):
        assert name.startswith(mac[0][:-4] + "-")
        timing = (tmp_path / "out" / name).read_text().splitlines()
        assert timing[1] == "b,stride,time_drop_s,time_full_s,speedup"
        assert [r.split(",")[0] for r in timing[2:]] == ["3", "5"]
        assert np.all([float(x) > 0 for r in timing[2:] for x in r.split(",")[2:]])


# report names as the option resolution has always produced them; a config
# file holding the same values as the flags names the same report
PINNED = [
    (["certify", "--ckpt", "good.svit", "--b", "4", "--patch-sizes", "2,3"],
     ["certify-9db89bd5f306.csv", "certify-9db89bd5f306.json"]),
    (["certify", "--ckpt", "good.svit", "--config", "b4.json"],
     ["certify-9db89bd5f306.csv", "certify-9db89bd5f306.json"]),
    (["sweep", "--ckpt", "good.svit", "--b-grid", "2,3,3", "--patch-sizes", "2"],
     ["sweep-402a5eb54d6a.csv"]),
    (BENCH, ["bench-168fa6f21211.csv"]),
]


@pytest.mark.parametrize("argv,names", PINNED, ids=[a[0] for a, _ in PINNED])
def test_report_names_are_pinned(files, monkeypatch, argv, names):
    monkeypatch.chdir(files)
    assert cli.main(argv + ["--out", "out"]) == 0
    stamped = sorted(p.name for p in (files / "out").iterdir() if p.name.count("-") == 1)
    assert stamped == names


def test_bench_builds_only_the_timed_sample(tmp_path, monkeypatch):
    built, timed = [], []

    class Counted(ablation.AblatedImage):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    def harness(model, batch, trials):
        timed.append(batch)
        return wallclock_harness(model, batch, trials)

    wallclock_harness = cli.wallclock_harness
    monkeypatch.setattr(ablation, "AblatedImage", Counted)
    monkeypatch.setattr(cli, "wallclock_harness", harness)
    monkeypatch.chdir(tmp_path)
    assert cli.main(BENCH + ["--ablation", "block", "--out", "out"]) == 0
    assert len(built) == 4  # --batch 2 for each b in 3,5, not 2 x 256 block ablations
    blank = np.zeros((16, 16, 1), dtype=np.float32)
    for b, batch in zip([3, 5], timed):
        full = ablation.ablation_set(blank, ablation.AblationSpec("block", b))
        assert [z.mask.tolist() for z in batch] == [z.mask.tolist() for z in full[::128]]
