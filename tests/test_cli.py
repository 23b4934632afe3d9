"""CLI exit-code contract: malformed inputs exit 2 or 3 with a JSON error record and
write nothing; reports are written whole or not at all, and their names and ablate's
files stay pinned; bench times the engine on the passes its MAC columns count, and
ablate holds one ablation at a time."""

import errno
import hashlib
import json
import os
import socket
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

from patchcert import ablation, cli, vit
from patchcert.errors import FormatError, ParameterError
from patchcert.numerics import count_macs
from patchcert.vit import Model, ViTConfig, save_checkpoint
from references import forced_stack_pool

CFG = ViTConfig(h=16, w=16, c=1, p=4, d=8, heads=2, layers=1, k=4)
WIDE = ViTConfig(h=8, w=16, c=1, p=4, d=8, heads=2, layers=1, k=4)


def _idx_float32(pixels):
    head = b"\0\0\x0d" + bytes([pixels.ndim]) + struct.pack(f">{pixels.ndim}I", *pixels.shape)
    return head + pixels.astype(">f4").tobytes()


def _idx_ubyte(array):
    head = b"\0\0\x08" + bytes([array.ndim]) + struct.pack(f">{array.ndim}I", *array.shape)
    return head + array.tobytes()


def _save_reshaped(path, **tensors):
    """A CFG checkpoint whose named tensors have other shapes than CFG declares."""
    model = Model.init(CFG, seed=0)
    model.params.update({name: np.zeros(shape, np.float32) for name, shape in tensors.items()})
    save_checkpoint(model, path)


def _with_config(blob, **values):
    """A saved checkpoint's bytes with values replaced in its header config."""
    hlen = struct.unpack_from("<I", blob, 8)[0]
    header = json.loads(blob[12 : 12 + hlen])
    header["config"].update(values)
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:8] + struct.pack("<I", len(text)) + text + blob[12 + hlen :]


@pytest.fixture
def files(tmp_path):
    good = tmp_path / "good.svit"
    save_checkpoint(Model.init(CFG, seed=0), good)
    save_checkpoint(Model.init(WIDE, seed=0), tmp_path / "wide.svit")
    # finite weights whose forward overflows, as a diverged run leaves them
    huge = Model.init(CFG, seed=0)
    save_checkpoint(Model(CFG, {k: v * np.float32(1e30) for k, v in huge.params.items()}),
                    tmp_path / "huge.svit")
    _save_reshaped(tmp_path / "pos_row.svit", pos_embed=(1, 8))
    _save_reshaped(tmp_path / "mlp_2d.svit", **{
        "layers.0.mlp.w1": (8, 16), "layers.0.mlp.b1": (16,), "layers.0.mlp.w2": (16, 8)})
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
        "split_typo.json": b'{"split_typo": "val"}',
        "sizes_empty.json": b'{"patch_sizes": []}',
        "nan_bias.svit": blob[:-4] + struct.pack("<f", float("nan")),  # head.bias is last
        "h_float.svit": _with_config(blob, h=16.0),
        "heads_true.svit": _with_config(blob, heads=True),
        "b_float.json": b'{"b": 3.7}',
        "b_true.json": b'{"b": true}',
        "sizes_float.json": b'{"patch_sizes": [2.9]}',
        "grid_true.json": b'{"b_grid": [3, true]}',
        "lr_true.json": b'{"lr": true}',
        "nan.idx": _idx_float32(np.full((4, 16, 16), np.nan, np.float32)),
        "half.idx": _idx_float32(np.full((4, 16, 16), 0.5, np.float32)),
        "labels.idx": b"\0\0\x08\x01" + struct.pack(">I", 4) + bytes([0, 1, 2, 3]),
        "labels_2d.idx": b"\0\0\x08\x02" + struct.pack(">II", 4, 1) + bytes([0, 1, 2, 3]),
        "labels3.idx": b"\0\0\x08\x01" + struct.pack(">I", 3) + bytes([0, 1, 2]),
        "labels0.idx": b"\0\0\x08\x01" + struct.pack(">I", 0),
        # dims whose product is 2**64: in int64 it wraps to 0, matching the empty payload
        "wrap.idx": b"\0\0\x0d\x03" + struct.pack(">III", 2**31, 2**31, 4),
        "empty.idx": _idx_float32(np.zeros((0, 16, 16), np.float32)),
        "rank0.idx": _idx_float32(np.array(0.5, np.float32)),
        "rank2.idx": _idx_float32(np.full((6, 8), 0.5, np.float32)),
        "rank5.idx": _idx_float32(np.full((6, 8, 8, 1, 1), 0.5, np.float32)),
        "float_labels.idx": _idx_float32(np.array([0.0, 1.7, 2.0, 3e9], np.float32)),
        "lr_nan.json": b'{"lr": NaN}',
        "wd_nan.json": b'{"weight_decay": NaN}',
        "code09.idx": b"\0\0\x09\x01" + struct.pack(">I", 1) + b"\0",
        "short_head.idx": b"\0\0\x08\x02" + struct.pack(">I", 4),  # two dims, one given
        "cifar_label10.bin": b"\x0a" + bytes(3072),
        "version.svit": blob[:4] + struct.pack("<I", vit.CHECKPOINT_VERSION + 1) + blob[8:],
        "layers2.svit": _with_config(blob, layers=2),  # its manifest lists one layer
        "c2.svit": _with_config(blob, c=2),
        "k1.svit": _with_config(blob, k=1),
        "two_channel.idx": _idx_float32(np.full((4, 16, 16, 2), 0.5, np.float32)),
    }
    for name, data in contents.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "adir").mkdir()
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
    # a directory where a file is read: 2
    (["certify", "--ckpt", "adir"], 2),
    (["delta", "--config", "adir"], 2),
    (["certify", "--ckpt", "good.svit", "--data-format", "cifar10", "--data", "adir"], 2),
    (["certify", "--ckpt", "good.svit", "--config", "missing.json"], 2),
    (["certify", "--ckpt", "good.svit", "--data-format", "cifar10", "--data", "cifar.bin"], 2),
    (["certify", "--ckpt", "good.svit", "--data-format", "idx", "--data", "idx.bin",
      "--labels", "idx.bin"], 2),
    # labels must be unsigned bytes: a float32 label would be cast to some class: 2
    (["certify", "--ckpt", "good.svit", "--data-format", "idx", "--data", "half.idx",
      "--labels", "float_labels.idx"], 2),
    (["train", "--data-format", "idx", "--data", "half.idx", "--labels", "float_labels.idx"], 2),
    # IDX images that are not (n, h, w) or (n, h, w, c), or labels that are not (n,): 2
    (["train", "--data-format", "idx", "--data", "rank0.idx", "--labels", "labels.idx"], 2),
    (["train", "--data-format", "idx", "--data", "rank2.idx", "--labels", "labels.idx"], 2),
    (["train", "--data-format", "idx", "--data", "rank5.idx", "--labels", "labels.idx"], 2),
    (["ablate", "--data-format", "idx", "--data", "rank2.idx", "--labels", "labels.idx"], 2),
    (["certify", "--ckpt", "good.svit", "--data-format", "idx", "--data", "rank5.idx",
      "--labels", "labels.idx"], 2),
    (["certify", "--ckpt", "good.svit", "--data-format", "idx", "--data", "half.idx",
      "--labels", "labels_2d.idx"], 2),
    (["train", "--data-format", "idx", "--data", "half.idx", "--labels", "labels_2d.idx"], 2),
    # IDX dims whose element count overflows int64: 2
    (["train", "--data-format", "idx", "--data", "wrap.idx", "--labels", "labels0.idx"], 2),
    (["certify", "--ckpt", "good.svit", "--data-format", "idx", "--data", "wrap.idx",
      "--labels", "labels0.idx"], 2),
    # IDX images and labels whose counts disagree: 2
    (["certify", "--ckpt", "good.svit", "--data-format", "idx", "--data", "half.idx",
      "--labels", "labels3.idx"], 2),
    (["train", "--data-format", "idx", "--data", "half.idx", "--labels", "labels3.idx"], 2),
    # a checkpoint that would vote from NaN logits: 2
    (["certify", "--ckpt", "nan_bias.svit"], 2),
    # finite weights whose forward overflows: corrupt, as NaN weights are: 2
    (["certify", "--ckpt", "huge.svit"], 2),
    # a checkpoint whose config dimensions are not integers: 2
    (["certify", "--ckpt", "h_float.svit"], 2),
    (["certify", "--ckpt", "heads_true.svit"], 2),
    # a checkpoint whose tensors are not the shapes its config declares: 2
    (["certify", "--ckpt", "pos_row.svit"], 2),
    (["certify", "--ckpt", "mlp_2d.svit"], 2),
    # invalid parameter: 3
    (["certify", "--ckpt", "good.svit", "--config", "bad.json"], 3),
    (["certify", "--ckpt", "good.svit", "--config", "list.json"], 3),
    (["certify", "--ckpt", "good.svit", "--config", "binary.json"], 3),
    (["certify", "--ckpt", "good.svit", "--patch-sizes", "a,b"], 3),
    (["certify", "--ckpt", "good.svit", "--patch-sizes", "99"], 3),
    (["sweep", "--ckpt", "good.svit", "--patch-sizes", "17"], 3),
    (["delta", "--h", "8", "--w", "8", "--patch-sizes", "9"], 3),
    # a failing delta run prints no row, not even the rows before the bad one
    (["delta", "--h", "0"], 3),
    (["delta", "--patch-sizes", "2,0"], 3),
    # NaN pixels are outside [0, 1]: 3
    (["certify", "--ckpt", "good.svit", "--data-format", "idx", "--data", "nan.idx",
      "--labels", "labels.idx"], 3),
    (["train", "--data-format", "idx", "--data", "nan.idx", "--labels", "labels.idx"], 3),
    # an empty integer list: 3
    (["certify", "--ckpt", "good.svit", "--patch-sizes", ","], 3),
    (["certify", "--ckpt", "good.svit", "--config", "sizes_empty.json"], 3),
    (["sweep", "--ckpt", "good.svit", "--patch-sizes", ","], 3),
    (["sweep", "--ckpt", "good.svit", "--b-grid", ","], 3),
    (["sweep", "--ckpt", "good.svit", "--stride-grid", ","], 3),
    (["delta", "--patch-sizes", ","], 3),
    (["bench", "--b-grid", ","], 3),
    (["certify", "--ckpt", "good.svit", "--b", "0"], 3),
    (["certify", "--ckpt", "good.svit", "--b", "40"], 3),
    (["certify", "--ckpt", "good.svit", "--stride", "2", "--offset", "5"], 3),
    (["certify", "--ckpt", "good.svit", "--data-format", "cifar10"], 3),
    # one record cannot be split into train and val: 3
    (["train", "--data-format", "cifar10", "--data", "cifar1.bin"], 3),
    (["certify", "--ckpt", "good.svit", "--stripe-n", "3", "--split", "val"], 3),
    # an empty dataset is an empty split, --split all included: 3
    (["certify", "--ckpt", "good.svit", "--stripe-n", "0", "--split", "all"], 3),
    (["certify", "--ckpt", "good.svit", "--data-format", "idx", "--data", "empty.idx",
      "--labels", "labels0.idx", "--split", "all"], 3),
    (["sweep", "--ckpt", "good.svit", "--stripe-n", "0", "--split", "all"], 3),
    # a block offset at or past the image height leaves no ablation: 3
    (["certify", "--ckpt", "wide.svit", "--stripe-h", "8", "--stripe-w", "16", "--ablation",
      "block", "--b", "4", "--stride", "12", "--offset", "9"], 3),
    (["ablate", "--stripe-h", "8", "--stripe-w", "16", "--ablation", "block", "--b", "4",
      "--stride", "12", "--offset", "9"], 3),
    (["bench", "--h", "8", "--w", "16", "--c", "1", "--p", "4", "--d", "8", "--heads", "2",
      "--layers", "1", "--k", "3", "--ablation", "block", "--b-grid", "4", "--stride", "12",
      "--offset", "9", "--trials", "3"], 3),
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
    # a boolean, or a float for an integer, is refused rather than converted: 3
    (["certify", "--ckpt", "good.svit", "--config", "b_float.json"], 3),
    (["certify", "--ckpt", "good.svit", "--config", "b_true.json"], 3),
    (["certify", "--ckpt", "good.svit", "--config", "sizes_float.json"], 3),
    (["sweep", "--ckpt", "good.svit", "--config", "grid_true.json"], 3),
    (["train", "--config", "lr_true.json"], 3),
    (["train", "--epochs", "0"], 3),
    # training that leaves a model whose forward is not finite diverged, even with finite losses: 3
    (["train", "--stripe-n", "16", "--epochs", "1", "--lr", "1e30"], 3),
    # a training, stripe, ablation or model setting outside its range: 3
    (["train", "--momentum", "1"], 3),
    (["train", "--stripe-k", "9"], 3),
    (["train", "--stripe-noise", "0.5"], 3),
    (["certify", "--ckpt", "good.svit", "--stride", "0"], 3),
    (["ablate", "--stride", "40"], 3),
    (["train", "--p", "5"], 3),
    (["train", "--d", "30", "--heads", "4"], 3),
    (["train", "--layers", "0"], 3),
    # a non-finite learning rate or weight decay would train a non-finite checkpoint: 3
    (["train", "--lr", "nan"], 3),
    (["train", "--lr", "inf"], 3),
    (["train", "--weight-decay", "inf"], 3),
    (["train", "--weight-decay", "nan"], 3),
    (["train", "--config", "lr_nan.json"], 3),
    (["train", "--config", "wd_nan.json"], 3),
    # a negative stripe image count or a stripe side below 1: 3
    (["train", "--stripe-n", "-1"], 3),
    (["train", "--stripe-h", "-4"], 3),
    (["train", "--stripe-w", "-8"], 3),
    (["ablate", "--stripe-n", "-1"], 3),
    (["ablate", "--stripe-h", "-4"], 3),
    (["ablate", "--stripe-w", "-8"], 3),
    (["certify", "--ckpt", "good.svit", "--stripe-n", "-1"], 3),
    (["certify", "--ckpt", "good.svit", "--stripe-h", "-4"], 3),
    (["certify", "--ckpt", "good.svit", "--stripe-w", "-8"], 3),
    (["sweep", "--ckpt", "good.svit", "--b-grid", "x"], 3),
    # a flag the command does not read does not exist, and flags are not abbreviated: 3
    (["train", "--split", "test"], 3),
    (["ablate", "--split", "val"], 3),
    (["bench", "--b", "7"], 3),
    (["sweep", "--ckpt", "good.svit", "--b", "3"], 3),
    (["delta", "--out", "out"], 3),
    # certify and sweep take Delta from no option: only the exact count certifies
    (["certify", "--ckpt", "good.svit", "--delta-mode", "safe"], 3),
    (["sweep", "--ckpt", "good.svit", "--delta-mode", "oracle"], 3),
    # a config value outside its choices fails before any work: 3
    (["train", "--config", "kind_diag.json"], 3),
    (["train", "--config", "format_x.json"], 3),
    (["certify", "--config", "ckpt_fd.json"], 3),
    # a config key the command does not declare: 3
    (["certify", "--ckpt", "good.svit", "--config", "mode_x.json"], 3),
    (["certify", "--ckpt", "good.svit", "--config", "split_typo.json"], 3),
    (["train", "--config", "b4.json"], 3),
    (["delta", "--config", "format_x.json"], 3),
    # bench times whole smoothed passes: it has no --batch, and needs 3 trials
    (["bench", "--batch", "0"], 3),
    (["bench", "--trials", "2"], 3),
    # numpy's generators refuse a negative seed, and delta draws nothing: 3
    (["train", "--seed", "-1"], 3),
    (["ablate", "--seed", "-1"], 3),
    (["bench", "--seed", "-1"], 3),
    (["certify", "--ckpt", "good.svit", "--seed", "-1"], 3),
    (["delta", "--seed", "1"], 3),
    (["certify", "--ckpt", "good.svit", "--stripe-h", "8"], 3),
    (["certify", "--ckpt", "good.svit", "--stripe-k", "5"], 3),
    (["ablate", "--stripe-n", "4", "--index", "4"], 3),
    (["certify", "--ckpt", "good.svit", "--data-format", "idx", "--data", "code09.idx",
      "--labels", "labels.idx"], 2),
    (["certify", "--ckpt", "good.svit", "--data-format", "idx", "--data", "short_head.idx",
      "--labels", "labels.idx"], 2),
    (["certify", "--ckpt", "good.svit", "--data-format", "cifar10", "--data",
      "cifar_label10.bin"], 2),
    (["certify", "--ckpt", "version.svit"], 2),
    (["certify", "--ckpt", "layers2.svit"], 2),
    # a checkpoint header whose config no model can have: 2
    (["certify", "--ckpt", "c2.svit"], 2),
    (["certify", "--ckpt", "k1.svit"], 2),
    # images of 2 channels: 3, as a 2-channel stripe image would be
    (["ablate", "--data-format", "idx", "--data", "two_channel.idx", "--labels", "labels.idx"], 3),
    # 6 stripe records hold 6 * 15 // 100 = 0 val records: 3
    (["train", "--stripe-n", "6", "--epochs", "1"], 3),
]

# rows whose error record must name the check that refused them
NAMED = {
    "certify --ckpt good.svit --stripe-h 8": "checkpoint expects images (16, 16, 1)",
    "certify --ckpt good.svit --stripe-k 5": "dataset has 5 classes, checkpoint only 4",
    "ablate --stripe-n 4 --index 4": "image index 4 outside dataset of 4",
    "certify --ckpt good.svit --data-format idx --data code09.idx --labels labels.idx":
        "unsupported IDX type code 0x09",
    "certify --ckpt good.svit --data-format idx --data short_head.idx --labels labels.idx":
        "IDX header truncated",
    "certify --ckpt good.svit --data-format cifar10 --data cifar_label10.bin": "label byte 10 > 9",
    "certify --ckpt version.svit": "unsupported checkpoint version",
    "certify --ckpt layers2.svit": "checkpoint manifest does not match its config",
    "certify --ckpt huge.svit": "failed: overflow encountered",
    "train --stripe-n 16 --epochs 1 --lr 1e30": "after epoch 0 the model cannot classify",
    "train --momentum 1": "momentum must be in [0, 1)",
    "train --stripe-k 9": "supports 2..8 classes, got 9",
    "train --stripe-noise 0.5": "noise amplitude must be in [0, 0.5)",
    "certify --ckpt good.svit --stride 0": "stride must be >= 1",
    "ablate --stride 40": "stride 40 exceeds image width 16",
    "train --p 5": "patch size 5 must divide 16x16",
    "train --d 30 --heads 4": "embedding dim 30 not divisible by 4 heads",
    "train --layers 0": "all config dimensions must be positive",
    "certify --ckpt c2.svit": "unreadable checkpoint header: channels must be 1 or 3, got 2",
    "certify --ckpt k1.svit": "unreadable checkpoint header: need at least 2 classes, got 1",
    "ablate --data-format idx --data two_channel.idx --labels labels.idx":
        "bad image dimensions (16, 16, 2); channels must be 1 or 3",
    "train --stripe-n 6 --epochs 1": "fit needs nonempty train and val splits",
    "train --data-format idx --data nan.idx --labels labels.idx": "pixel values must lie in [0, 1]",
}


# a warning is an error here: in a terminal numpy's raw warning lines would reach stderr
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,code", CASES, ids=[" ".join(a) for a, _ in CASES])
def test_malformed_input_exit_code(files, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(files)
    assert cli.main(argv + ([] if argv[0] == "delta" else ["--out", "out"])) == code
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.err.splitlines()]  # every line is JSON
    assert records and all(isinstance(r, dict) for r in records)
    record = records[-1]
    assert record["exit_code"] == code
    assert NAMED.get(" ".join(argv), "") in record["error"]
    assert captured.out == ""
    assert not (files / "out").exists() or not any((files / "out").iterdir())


BENCH = ["bench", "--h", "16", "--w", "16", "--c", "1", "--p", "4", "--d", "8", "--heads", "2",
         "--layers", "1", "--k", "3", "--b-grid", "3,5", "--trials", "3"]

WRITING_COMMANDS = [
    ["ablate"],
    ["train", "--stripe-n", "8", "--epochs", "1"],
    ["certify", "--ckpt", "good.svit"],
    ["sweep", "--ckpt", "good.svit"],
    BENCH,
]


def _listing(directory):
    return {p.name: p.read_bytes() if p.is_file() else None for p in directory.iterdir()}


def _forbid_work(monkeypatch):
    """Any ablation, training, certification or timed pass the CLI starts fails the test."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("ablation_set", "fit", "certified_accuracy", "per_ablation_predictions"):
        monkeypatch.setattr(cli, name, no_work)


# an empty path, and names longer than the system allows, here or under a directory to make
@pytest.mark.parametrize("out", ["good.svit", "good.svit/sub", "", "a" * 300, "new/" + "a" * 300],
                         ids=["good.svit", "good.svit/sub", "empty", "a*300", "new/a*300"])
@pytest.mark.parametrize("argv", WRITING_COMMANDS, ids=[a[0] for a in WRITING_COMMANDS])
def test_an_out_that_is_not_a_directory_exits_3_before_any_work(files, monkeypatch, capsys, argv, out):
    _forbid_work(monkeypatch)
    monkeypatch.chdir(files)
    before = _listing(files)
    assert cli.main(argv + ["--out", out]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.err.strip().splitlines()[-1])["exit_code"] == 3
    assert captured.out == ""
    assert _listing(files) == before


SPECS_BEFORE_WORK = [
    ["sweep", "--ckpt", "good.svit", "--b-grid", "3,40"],
    ["sweep", "--ckpt", "good.svit", "--stride-grid", "3,1", "--offset", "2"],
    ["train", "--b-train", "40"],
    BENCH + ["--b-grid", "3,40"],
]


@pytest.mark.parametrize("argv", SPECS_BEFORE_WORK, ids=" ".join)
def test_every_spec_is_checked_before_any_work(files, monkeypatch, capsys, argv):
    # a bad grid point or training strip exits 3 before the first point is certified or timed
    _forbid_work(monkeypatch)
    monkeypatch.chdir(files)
    assert cli.main(argv + ["--out", "out"]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.err.strip().splitlines()[-1])["exit_code"] == 3
    assert captured.out == "" and not (files / "out").exists()


def test_a_rerun_that_would_overwrite_a_different_report_exits_1(files, monkeypatch, capsys):
    monkeypatch.chdir(files)
    argv = ["certify", "--ckpt", "good.svit", "--stripe-n", "2", "--out", "out"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    (report,) = (files / "out").glob("certify-*.json")
    report.write_text("{}\n")
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    record = json.loads(captured.err.strip().splitlines()[-1])
    assert record["exit_code"] == 1 and "refusing to clobber" in record["error"]
    assert captured.out == ""
    assert report.read_text() == "{}\n"


def test_a_refused_report_leaves_no_new_report_beside_it(files, monkeypatch, capsys):
    # certify checks both its reports against the files there before it writes either
    monkeypatch.chdir(files)
    argv = ["certify", "--ckpt", "good.svit", "--stripe-n", "2", "--out", "out"]
    assert cli.main(argv) == 0
    (report,) = (files / "out").glob("certify-*.json")
    report.unlink()
    (files / "out" / report.name.replace(".json", ".csv")).write_text("m\n")
    capsys.readouterr()
    assert cli.main(argv) == 1
    assert "refusing to clobber" in json.loads(capsys.readouterr().err.splitlines()[-1])["error"]
    assert not report.exists()


class _HalfWriter:
    """A file opened to write whose write stores half its bytes, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _half_writing_open(file, mode="r", *args, **kwargs):
    fh = open(file, mode, *args, **kwargs)
    return _HalfWriter(fh) if "w" in mode else fh


def _failing_replace(src, dst):
    raise OSError(errno.EIO, os.strerror(errno.EIO), dst)


@pytest.mark.parametrize("fails", ["write", "replace"])
def test_a_report_whose_write_fails_leaves_no_file_and_a_rerun_succeeds(files, monkeypatch,
                                                                        capsys, fails):
    monkeypatch.chdir(files)
    argv = ["certify", "--ckpt", "good.svit", "--stripe-n", "2"]
    assert cli.main(argv + ["--out", "ref"]) == 0
    with monkeypatch.context() as patch:
        if fails == "write":
            patch.setattr(cli, "open", _half_writing_open, raising=False)
        else:
            patch.setattr(os, "replace", _failing_replace)
        assert cli.main(argv + ["--out", "out"]) == 1
    assert os.listdir(files / "out") == []  # no partial report, no temporary file
    capsys.readouterr()
    assert cli.main(argv + ["--out", "out"]) == 0
    assert _listing(files / "out") == _listing(files / "ref")


# each writing command's outputs, named as a re-run names them again: the
# first, and for ablate, train and certify a later one
TAKEN = {
    "ablate": "abl_0.ppm", "ablate-mask": "mask_3.pgm", "train": "ckpt-*.svit",
    "train-log": "train-*.jsonl", "certify": "certify-*.json", "certify-csv": "certify-*.csv",
    "sweep": "sweep-*.csv", "bench": "bench-????????????.csv",
}


@pytest.mark.parametrize("case,name", TAKEN.items(), ids=list(TAKEN))
def test_an_output_name_taken_by_a_directory_exits_1(files, monkeypatch, capsys, case, name):
    monkeypatch.chdir(files)
    (argv,) = [a + ["--out", "out"] for a in WRITING_COMMANDS if a[0] == case.split("-")[0]]
    assert cli.main(argv) == 0
    (taken,) = (files / "out").glob(name)
    taken.unlink()
    taken.mkdir()
    before = _listing(files / "out")
    capsys.readouterr()
    _forbid_work(monkeypatch)  # the name is refused before any work
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()  # the error record, and no traceback
    record = json.loads(line)
    assert record["exit_code"] == 1 and record["type"] == "IsADirectoryError"
    assert captured.out == ""
    assert _listing(files / "out") == before


def test_an_output_name_taken_by_another_kind_of_file_exits_1(files, monkeypatch, capsys):
    # a socket at the report's name: opening it would fail after the work, so it is refused before
    monkeypatch.chdir(files)
    argv = ["sweep", "--ckpt", "good.svit", "--out", "out"]
    assert cli.main(argv) == 0
    (taken,) = (files / "out").glob("sweep-*.csv")
    taken.unlink()
    with socket.socket(socket.AF_UNIX) as sock:
        sock.bind(os.path.relpath(taken))  # short: a socket path holds at most 108 bytes
    capsys.readouterr()
    _forbid_work(monkeypatch)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err)["type"] == "FileExistsError" and captured.out == ""


def test_idx_images_certify_when_finite(files, monkeypatch, capsys):
    # the control for the NaN case: the same files with finite pixels certify
    monkeypatch.chdir(files)
    argv = ["certify", "--ckpt", "good.svit", "--data-format", "idx", "--data", "half.idx",
            "--labels", "labels.idx", "--out", "out"]
    assert cli.main(argv) == 0
    assert "standard accuracy" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["certify", "sweep"])
def test_a_pixel_outside_the_unit_interval_is_refused_before_any_image_is_classified(
        files, monkeypatch, capsys, command):
    # the 8th image holds a NaN: the split's pixels are scanned once, as train_epoch scans
    # its data, so none of the seven before it is classified first
    pixels = np.full((8, 16, 16), 0.5, np.float32)
    pixels[7, 3, 5] = np.nan
    (files / "nan8.idx").write_bytes(_idx_float32(pixels))
    (files / "labels8.idx").write_bytes(_idx_ubyte(np.arange(8, dtype=np.uint8) % 4))
    forward, calls = vit.per_ablation_predictions, []

    def counting(*args):
        calls.append(args)
        return forward(*args)

    monkeypatch.setattr(vit, "per_ablation_predictions", counting)
    monkeypatch.chdir(files)
    argv = [command, "--ckpt", "good.svit", "--data-format", "idx", "--data", "nan8.idx",
            "--labels", "labels8.idx", "--out", "out"]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert "pixel values must lie in [0, 1]" in json.loads(captured.err)["error"]
    assert calls == [] and captured.out == "" and not (files / "out").exists()


def _refuse_access(monkeypatch, name, mode):
    """os.access denies mode on every path whose last part is name. The suite may run as
    root, whom permission bits never refuse, so the test sets what os.access answers."""
    access = os.access

    def refusing(path, want, *args, **kwargs):
        if os.path.basename(os.path.abspath(path)) == name and want & mode:
            return False
        return access(path, want, *args, **kwargs)

    monkeypatch.setattr(os, "access", refusing)


UNREADABLE = [
    (["certify", "--ckpt", "good.svit"], "good.svit"),
    (["sweep", "--ckpt", "good.svit"], "good.svit"),
    (["certify", "--ckpt", "good.svit", "--config", "b4.json"], "b4.json"),
    (["delta", "--config", "b4.json"], "b4.json"),
    (["certify", "--ckpt", "good.svit", "--data-format", "idx", "--data", "half.idx",
      "--labels", "labels.idx"], "half.idx"),
    (["certify", "--ckpt", "good.svit", "--data-format", "idx", "--data", "half.idx",
      "--labels", "labels.idx"], "labels.idx"),
    (["ablate", "--data-format", "cifar10", "--data", "cifar1.bin"], "cifar1.bin"),
]


@pytest.mark.parametrize("argv,name", UNREADABLE, ids=[f"{a[0]}-{n}" for a, n in UNREADABLE])
def test_an_input_the_process_cannot_read_exits_2_before_any_work(files, monkeypatch, capsys,
                                                                  argv, name):
    _refuse_access(monkeypatch, name, os.R_OK)
    monkeypatch.chdir(files)
    assert cli.main(argv + ([] if argv[0] == "delta" else ["--out", "out"])) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()  # one JSON record, no traceback
    record = json.loads(line)
    assert record["exit_code"] == 2 and f"is not readable: {name}" in record["error"]
    assert captured.out == "" and not (files / "out").exists()


@pytest.mark.parametrize("out", ["out", "out/sub", "."])
@pytest.mark.parametrize("argv", WRITING_COMMANDS, ids=[a[0] for a in WRITING_COMMANDS])
def test_an_out_the_process_cannot_write_into_exits_3_before_any_work(files, monkeypatch, capsys,
                                                                      argv, out):
    _forbid_work(monkeypatch)
    _refuse_access(monkeypatch, files.name, os.W_OK)  # out's nearest existing directory
    monkeypatch.chdir(files)
    before = _listing(files)
    assert cli.main(argv + ["--out", out]) == 3
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    record = json.loads(line)
    assert record["exit_code"] == 3 and f"directory {files} is not writable" in record["error"]
    assert captured.out == ""
    assert _listing(files) == before


@pytest.mark.parametrize("fmt,shape", [
    ("idx", (256, 32, 32, 3)), ("idx", (256, 32, 32)), ("cifar10", (256, 32, 32, 3)),
], ids=["idx", "idx-3d", "cifar10"])
def test_a_byte_dataset_decodes_into_one_float32_copy(tmp_path, fmt, shape):
    # loading a uint8 file and taking certify's default test split holds the file's bytes and
    # one float32 copy of the images at most; the pixels are the bits u8 / 255 had in float32
    rng = np.random.default_rng(0)
    u8 = rng.integers(0, 256, shape, dtype=np.uint8)
    u8.flat[:256] = np.arange(256)  # every byte value
    labels = rng.integers(0, 10, len(u8), dtype=np.uint8)
    if fmt == "idx":
        (tmp_path / "x.idx").write_bytes(_idx_ubyte(u8))
        (tmp_path / "y.idx").write_bytes(_idx_ubyte(labels))
        o = {"data_format": "idx", "data": str(tmp_path / "x.idx"),
             "labels": str(tmp_path / "y.idx")}
    else:
        planes = u8.transpose(0, 3, 1, 2).reshape(len(u8), -1)
        (tmp_path / "x.bin").write_bytes(np.column_stack([labels, planes]).tobytes())
        o = {"data_format": "cifar10", "data": str(tmp_path / "x.bin")}
    file_bytes = sum(path.stat().st_size for path in tmp_path.iterdir())
    tracemalloc.start()
    try:
        data = cli._load_dataset(o, seed=0)
        test = data.subset("test")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 1.05 * (file_bytes + 4 * u8.size)
    assert peak <= bound, f"peak {peak} B, bound {bound:.0f} B"
    assert test is data
    want = u8.reshape(*u8.shape[:3], -1).astype(np.float32) / 255.0  # (n, h, w) gains c=1
    assert data.images.shape == want.shape
    assert data.images.dtype == np.float32 and data.images.tobytes() == want.tobytes()
    assert data.labels.tolist() == labels.tolist()


def test_train_splits_a_file_without_splits_deterministically(files, monkeypatch, capsys):
    # IDX and CIFAR-10 records carry no split: train holds out a seeded share as val
    monkeypatch.chdir(files)
    argv = ["train", "--data-format", "idx", "--data", "half.idx", "--labels", "labels.idx",
            "--epochs", "1", "--d", "8", "--heads", "2", "--layers", "1"]
    assert cli.main(argv + ["--out", "a"]) == 0
    assert cli.main(argv + ["--out", "b"]) == 0
    assert "checkpoint:" in capsys.readouterr().out
    (ckpt_a,), (ckpt_b,) = (sorted((files / d).glob("ckpt-*.svit")) for d in "ab")
    assert ckpt_a.name == ckpt_b.name and ckpt_a.read_bytes() == ckpt_b.read_bytes()


def test_a_seed_replays_its_checkpoint_and_another_seed_does_not(files, monkeypatch, capsys):
    monkeypatch.chdir(files)
    argv = ["train", "--stripe-n", "8", "--epochs", "1", "--d", "8", "--heads", "2",
            "--layers", "1"]
    for seed, out in (("3", "a"), ("3", "b"), ("0", "c")):
        assert cli.main(argv + ["--seed", seed, "--out", out]) == 0
    (a,), (b,), (c,) = (list((files / d).glob("ckpt-*.svit")) for d in "abc")
    assert a.name == b.name != c.name
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()


def test_one_record_names_the_count(files, monkeypatch, capsys):
    monkeypatch.chdir(files)
    argv = ["train", "--data-format", "cifar10", "--data", "cifar1.bin", "--out", "out"]
    assert cli.main(argv) == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["type"] == "ParameterError" and "got 1" in record["error"]


def test_unknown_config_key_names_the_command_keys(files, monkeypatch, capsys):
    monkeypatch.chdir(files)
    argv = ["certify", "--ckpt", "good.svit", "--config", "split_typo.json", "--out", "out"]
    assert cli.main(argv) == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["type"] == "ParameterError"
    assert "split_typo" in record["error"]
    assert all(key in record["error"] for key in cli.OPTIONS["certify"])
    assert not (files / "out").exists()


def test_logs_are_one_json_object_per_line(files, monkeypatch, capsys):
    monkeypatch.chdir(files)
    monkeypatch.setenv("PATCHCERT_LOG", "info")
    argv = ["certify", "--ckpt", "good.svit", "--stripe-n", "2", "--out", "out"]
    assert cli.main(argv) == 0
    assert cli.main(argv) == 0  # the same report again: logged as unchanged
    records = [json.loads(line) for line in capsys.readouterr().err.strip().splitlines()]
    assert [sorted(r) for r in records] == [["level", "logger", "message"]] * 4
    assert {(r["level"], r["logger"]) for r in records} == {("info", "patchcert")}
    assert [r["message"].split()[0] for r in records] == ["wrote", "wrote", "report", "report"]
    monkeypatch.setenv("PATCHCERT_LOG", "error")
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


def test_empty_split_names_the_splits_present(files, monkeypatch, capsys):
    monkeypatch.chdir(files)
    argv = ["certify", "--ckpt", "good.svit", "--data-format", "cifar10", "--data", "cifar1.bin",
            "--split", "val", "--out", "out"]
    assert cli.main(argv) == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["type"] == "ParameterError"
    assert "'val'" in record["error"] and "splits present: test" in record["error"]


DELTA_TABLES = [
    (["--b", "19", "--stride", "10", "--patch-sizes", "16,32,64"], [
        "image 224x224, column b=19 s=10 offset=0",
        "    m       safe      paper     oracle  note",
        "   16          4          3          4  PAPER-UNDERCOUNTS",
        "   32          6          5          6  PAPER-UNDERCOUNTS",
        "   64          9          8          9  PAPER-UNDERCOUNTS",
        "note: flagged rows mark thresholds below the exact intersection count",
    ]),
    # 50,176 blocks by 193 x 193 placements: the oracle counts them per axis
    (["--ablation", "block", "--b", "19", "--patch-sizes", "32"], [
        "image 224x224, block b=19 s=1 offset=0",
        "    m       safe      paper     oracle  note",
        "   32       2500       2500       2500  ",
    ]),
    # the closed form counts each axis in linear memory; the oracle is past its budget
    (["--h", "100000", "--w", "100000", "--b", "1", "--patch-sizes", "5"], [
        "image 100000x100000, column b=1 s=1 offset=0",
        "    m       safe      paper     oracle  note",
        "    5          5          5    skipped  ",
    ]),
    # past the oracle's budget, the paper count below the safe one is still flagged
    (["--ablation", "block", "--h", "1000", "--w", "1000", "--b", "19", "--stride", "3",
      "--patch-sizes", "32"], [
        "image 1000x1000, block b=19 s=3 offset=0",
        "    m       safe      paper     oracle  note",
        "   32        324        144    skipped  paper<safe",
        "note: flagged rows mark thresholds below the exact intersection count",
    ]),
]


@pytest.mark.parametrize("argv,lines", DELTA_TABLES,
                         ids=["column-s10", "block-s1", "column-1e5", "block-paper-safe"])
def test_delta_prints_the_paper_imagenet_settings(capsys, argv, lines):
    assert cli.main(["delta", "--h", "224", "--w", "224"] + argv) == 0
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_delta_flags_a_safe_count_that_disagrees_with_the_oracle(monkeypatch, capsys):
    # the closed form and the oracle agree on every pinned row: an oracle one above stands in
    monkeypatch.setattr(cli, "delta_oracle",
                        lambda h, w, spec, m: cli.delta_closed_form(spec, m, "safe", dims=(h, w)) + 1)
    assert cli.main(["delta", "--ablation", "block", "--b", "19", "--patch-sizes", "32"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "image 224x224, block b=19 s=1 offset=0",
        "    m       safe      paper     oracle  note",
        "   32       2500       2500       2501  PAPER-UNDERCOUNTS,SAFE-MISMATCH",
        "note: flagged rows mark thresholds below the exact intersection count",
    ]


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
    (BENCH, ["bench-78beb9a97678.csv"]),
]


@pytest.mark.parametrize("argv,names", PINNED, ids=[a[0] for a, _ in PINNED])
def test_report_names_are_pinned(files, monkeypatch, argv, names):
    monkeypatch.chdir(files)
    assert cli.main(argv + ["--out", "out"]) == 0
    stamped = sorted(p.name for p in (files / "out").iterdir() if p.name.count("-") == 1)
    assert stamped == names


# certify reports as the exact Delta has always produced them, for a strided,
# offset column set and a block set: the JSON report's sha256 and the CSV
CERTIFY_REPORTS = [
    (["--b", "5", "--stride", "3", "--offset", "2", "--patch-sizes", "2,3,5"],
     "7dace4e740d5acd3fb94ced1df21987b970644b44551b895ed2de9ca9b7cccb2", [
         "m,delta,certified_accuracy,standard_accuracy",
         "2,2,0.2564102564102564,0.2564102564102564",
         "3,3,0.0,0.2564102564102564",
         "5,3,0.0,0.2564102564102564",
     ]),
    (["--ablation", "block", "--b", "4", "--stride", "2", "--offset", "1", "--patch-sizes", "1,3"],
     "d9527a62a644ab30abbc302fe90355fc27db13753b721bdb38a9a4699cff6c01", [
         "m,delta,certified_accuracy,standard_accuracy",
         "1,4,0.2564102564102564,0.2564102564102564",
         "3,9,0.2564102564102564,0.2564102564102564",
     ]),
]


@pytest.mark.parametrize("argv,digest,rows", CERTIFY_REPORTS, ids=["column", "block"])
def test_certify_reports_are_pinned(files, monkeypatch, argv, digest, rows):
    monkeypatch.chdir(files)
    assert cli.main(["certify", "--ckpt", "good.svit", *argv, "--out", "out"]) == 0
    (report,) = (files / "out").glob("*.json")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest
    assert report.with_suffix(".csv").read_text() == "\n".join(rows) + "\n"


@pytest.mark.parametrize("argv,digest,rows", CERTIFY_REPORTS, ids=["column", "block"])
def test_certify_reports_are_the_same_on_the_stack_pool(files, monkeypatch, argv, digest, rows):
    monkeypatch.chdir(files)
    with forced_stack_pool():
        assert cli.main(["certify", "--ckpt", "good.svit", *argv, "--out", "out"]) == 0
    (report,) = (files / "out").glob("*.json")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest
    assert report.with_suffix(".csv").read_text() == "\n".join(rows) + "\n"


@pytest.mark.parametrize("error,code", [(FormatError, 2), (ParameterError, 3)])
def test_an_error_on_the_stack_pool_exits_with_its_code(files, monkeypatch, capsys, error, code):
    def failing(*args):
        raise error("raised on a pool thread")

    monkeypatch.chdir(files)
    monkeypatch.setattr(vit, "process_ablation", failing)
    with forced_stack_pool():
        assert cli.main(["certify", "--ckpt", "good.svit", "--out", "out"]) == code
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["exit_code"] == code and "raised on a pool thread" in record["error"]


# sweep reports: a column grid with a duplicate b, and an offset block grid
SWEEP_REPORTS = [
    (["--b-grid", "2,5,2", "--stride-grid", "1,3", "--patch-sizes", "1,2,4"], [
        "b,s,m,delta,standard_accuracy,certified_accuracy",
        "2,1,1,2,0.2564102564102564,0.2564102564102564",
        "2,1,2,3,0.2564102564102564,0.2564102564102564",
        "2,1,4,5,0.2564102564102564,0.2564102564102564",
        "2,3,1,2,0.2564102564102564,0.2564102564102564",
        "2,3,2,2,0.2564102564102564,0.2564102564102564",
        "2,3,4,3,0.2564102564102564,0.0",
        "5,1,1,5,0.2564102564102564,0.2564102564102564",
        "5,1,2,6,0.2564102564102564,0.2564102564102564",
        "5,1,4,8,0.2564102564102564,0.0",
        "5,3,1,3,0.2564102564102564,0.0",
        "5,3,2,3,0.2564102564102564,0.0",
        "5,3,4,4,0.2564102564102564,0.0",
    ]),
    (["--ablation", "block", "--b-grid", "3,4", "--stride-grid", "2,3", "--offset", "1",
      "--patch-sizes", "1,3"], [
        "b,s,m,delta,standard_accuracy,certified_accuracy",
        "3,2,1,4,0.2564102564102564,0.2564102564102564",
        "3,2,3,9,0.2564102564102564,0.2564102564102564",
        "3,3,1,1,0.2564102564102564,0.2564102564102564",
        "3,3,3,4,0.2564102564102564,0.2564102564102564",
        "4,2,1,4,0.2564102564102564,0.2564102564102564",
        "4,2,3,9,0.2564102564102564,0.2564102564102564",
        "4,3,1,4,0.2564102564102564,0.2564102564102564",
        "4,3,3,4,0.2564102564102564,0.2564102564102564",
    ]),
]


@pytest.mark.parametrize("argv,rows", SWEEP_REPORTS, ids=["column", "block"])
def test_sweep_reports_are_pinned(files, monkeypatch, argv, rows):
    monkeypatch.chdir(files)
    assert cli.main(["sweep", "--ckpt", "good.svit", *argv, "--out", "out"]) == 0
    (report,) = (files / "out").iterdir()
    assert report.read_text() == "\n".join(rows) + "\n"


@pytest.mark.parametrize("argv,rows", SWEEP_REPORTS, ids=["column", "block"])
def test_each_sweep_point_is_the_certify_report(files, monkeypatch, argv, rows):
    monkeypatch.chdir(files)
    header, *body = (r.split(",") for r in rows)
    groups = {}
    for row in body:
        record = dict(zip(header, row))
        groups.setdefault((record["b"], record["s"]), []).append(record)
    kind = argv[argv.index("--ablation") + 1] if "--ablation" in argv else "column"
    offset = argv[argv.index("--offset") + 1] if "--offset" in argv else "0"
    sizes = argv[argv.index("--patch-sizes") + 1]
    for (b, s), records in groups.items():
        out = f"certify-{b}-{s}"
        assert cli.main(["certify", "--ckpt", "good.svit", "--ablation", kind, "--b", b,
                         "--stride", s, "--offset", offset, "--patch-sizes", sizes,
                         "--out", out]) == 0
        (report,) = (files / out).glob("*.csv")
        columns = ["m", "delta", "certified_accuracy", "standard_accuracy"]
        want = [",".join(columns)] + [",".join(r[c] for c in columns) for r in records]
        assert report.read_text() == "\n".join(want) + "\n"


SMALL_BENCH = ["bench", "--h", "16", "--w", "24", "--c", "1", "--p", "4", "--d", "8",
               "--heads", "2", "--layers", "1", "--k", "3", "--trials", "3"]

# MAC reports of strided sets whose last strip wraps past the image edge
MAC_REPORTS = [
    (["--b-grid", "3,5", "--stride", "3", "--offset", "1"], [
        "b,stride,n_tokens_mean,macs_drop,macs_full,mac_ratio",
        "3,3,7.0,19520,58688,0.3326063249727372",
        "5,3,9.0,23872,58688,0.40676117775354415",
    ]),
    (["--ablation", "block", "--b-grid", "3,6", "--stride", "5", "--offset", "2"], [
        "b,stride,n_tokens_mean,macs_drop,macs_full,mac_ratio",
        "3,5,3.6666666666666665,23000,110040,0.20901490367139222",
        "6,5,6.133333333333334,33064,110040,0.3004725554343875",
    ]),
]


@pytest.mark.parametrize("argv,lines", MAC_REPORTS, ids=["column", "block"])
def test_bench_mac_report_is_pinned(tmp_path, monkeypatch, argv, lines):
    monkeypatch.chdir(tmp_path)
    assert cli.main(SMALL_BENCH + argv + ["--out", "out"]) == 0
    (mac,) = [p for p in (tmp_path / "out").iterdir() if p.name.count("-") == 1]
    assert mac.read_text() == "\n".join(["# MAC columns cover one full smoothed pass", *lines, ""])


# every file ablate writes, as it has always written them: the file count and the
# sha256 over each file's name and sha256, for a stripe column set, a 3-channel
# CIFAR-10 block set with stride and offset, and a 3-D uint8 IDX column set
ABLATE_OUTPUTS = [
    ([], 32, "fefab7308387b3197d254fb9c03b4e61dc4ed787fa948b0053028fd90ec5ae10"),
    (["--data-format", "cifar10", "--data", "x.bin", "--index", "1", "--ablation", "block",
      "--b", "5", "--stride", "4", "--offset", "1"], 128,
     "8d39e4bfbba7e0415bffbd01ae4b68eaaafb7a29e25bd9db5a960cc71318d4e0"),
    (["--data-format", "idx", "--data", "x.idx", "--labels", "y.idx", "--index", "2",
      "--b", "4", "--stride", "2"], 20,
     "6779d2640f28ca4386b4089fcc51a84dd3ecb30648ec015d4223f82a36721425"),
]


@pytest.mark.parametrize("argv,count,digest", ABLATE_OUTPUTS, ids=["stripe", "cifar10", "idx"])
def test_ablate_outputs_are_pinned(tmp_path, monkeypatch, argv, count, digest):
    rng = np.random.default_rng(0)
    planes = rng.integers(0, 256, (2, 3 * 32 * 32), dtype=np.uint8)
    (tmp_path / "x.bin").write_bytes(np.column_stack([[3, 7], planes]).astype(np.uint8).tobytes())
    (tmp_path / "x.idx").write_bytes(_idx_ubyte(rng.integers(0, 256, (3, 12, 20), dtype=np.uint8)))
    (tmp_path / "y.idx").write_bytes(_idx_ubyte(np.array([0, 1, 2], np.uint8)))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["ablate", *argv, "--out", "out"]) == 0
    written = sorted((tmp_path / "out").iterdir())
    manifest = "".join(f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}\n" for p in written)
    assert len(written) == count
    assert hashlib.sha256(manifest.encode()).hexdigest() == digest


def test_ablate_writes_each_ablation_before_building_the_next(tmp_path, monkeypatch):
    built, written = [], []

    class Tracked(ablation.AblatedImage):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(weakref.ref(self))

    def netpbm(path, data):
        written.append(sum(ref() is not None for ref in built))
        write_netpbm(path, data)

    write_netpbm = cli._write_netpbm
    monkeypatch.setattr(ablation, "AblatedImage", Tracked)
    monkeypatch.setattr(cli, "_write_netpbm", netpbm)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["ablate", "--ablation", "block", "--b", "4", "--out", "out"]) == 0
    assert written == [1] * 512  # one 16x16 block ablation alive per file, not the set


def test_bench_builds_no_ablated_image(tmp_path, monkeypatch):
    built = []

    class Counted(ablation.AblatedImage):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(ablation, "AblatedImage", Counted)
    monkeypatch.chdir(tmp_path)
    assert cli.main(BENCH + ["--ablation", "block", "--out", "out"]) == 0
    assert built == []  # both timed sides run the engine on the image itself


@pytest.mark.parametrize("argv,lines", MAC_REPORTS, ids=["column", "block"])
def test_bench_times_the_passes_its_mac_columns_count(tmp_path, monkeypatch, argv, lines):
    # count_macs over each timed pass: the drop pass gives macs_drop, and the
    # full-grid pass, run once per anchor row of the set, gives macs_full
    macs = {}

    def counted(x, spec, params, cfg):
        with count_macs() as counter:
            preds = engine(x, spec, params, cfg)
        macs.setdefault(spec, set()).add(counter.total)
        return preds

    engine = cli.per_ablation_predictions
    monkeypatch.setattr(cli, "per_ablation_predictions", counted)
    monkeypatch.chdir(tmp_path)
    assert cli.main(SMALL_BENCH + argv + ["--out", "out"]) == 0
    assert len(macs) == len(lines)  # one full-grid pass, and one drop pass per b
    (full,) = [spec for spec in macs if spec.kind == "column" and spec.b == 24]
    for line in lines[1:]:
        b, _, _, macs_drop, macs_full, _ = line.split(",")
        (spec,) = [spec for spec in macs if spec.b == int(b)]
        assert (full.s, full.offset) == (spec.s, spec.offset)
        assert macs[spec] == {int(macs_drop)}
        anchor_rows = len(ablation.retained_axes(16, 24, spec)[0])
        assert {total * anchor_rows for total in macs[full]} == {int(macs_full)}


# a list option whose values repeat, out of ascending order: (command, key, values)
REPEATS = [
    (["certify", "--ckpt", "good.svit"], "patch_sizes", [3, 2, 3]),
    (["delta"], "patch_sizes", [32, 16, 32]),
    (["sweep", "--ckpt", "good.svit"], "patch_sizes", [3, 2, 3]),
    (["sweep", "--ckpt", "good.svit"], "b_grid", [5, 2, 5]),
    (["sweep", "--ckpt", "good.svit"], "stride_grid", [3, 1, 3]),
    (SMALL_BENCH, "b_grid", [5, 3, 5]),
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("argv,key,values", REPEATS, ids=[f"{a[0]}-{k}" for a, k, _ in REPEATS])
def test_a_repeated_list_value_counts_once_in_the_order_given(files, monkeypatch, capsys,
                                                             argv, key, values, source):
    monkeypatch.chdir(files)

    def output(given, out):
        """delta's table, or the reports named by config hash, keyed by suffix."""
        if source == "flag":
            option = ["--" + key.replace("_", "-"), ",".join(map(str, given))]
        else:
            (files / f"{out}.json").write_text(json.dumps({key: given}))
            option = ["--config", f"{out}.json"]
        assert cli.main(argv + option + ([] if argv[0] == "delta" else ["--out", out])) == 0
        printed = capsys.readouterr().out
        if argv[0] == "delta":
            return printed
        return {p.suffix: p.read_text() for p in (files / out).iterdir() if p.name.count("-") == 1}

    once = list(dict.fromkeys(values))
    first_seen = output(once, "once")
    assert output(values, "repeated") == first_seen
    assert output(sorted(once), "sorted") != first_seen  # the rows follow the given order
