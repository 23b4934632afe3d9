"""Command-line surface: dataset ingestion, persistence, reports.

Commands: ablate, train, certify, delta, sweep, bench. Every command is
deterministic given (config, seed) except for measured wall-clock
columns, which bench writes to a separate run-stamped file. Reports are
named by a content hash of the resolved run config, so re-runs
regenerate the same file and sweeps never clobber unrelated results.

Exit codes: 0 success, 1 internal error, 2 missing/corrupt input,
3 invalid parameters. Set PATCHCERT_LOG={error,info,debug} for logging.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import os
import struct
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .ablation import AblationSpec, ablation_set
from .bench import smoothing_cost, wallclock_harness
from .certify import certified_accuracy, delta_closed_form, delta_oracle
from .errors import (
    BudgetError,
    ConfigError,
    FormatError,
    ParameterError,
    PatchcertError,
)
from .train import LabeledDataset, TrainConfig, fit, make_stripe_dataset
from .vit import Model, ViTConfig, load_checkpoint, save_checkpoint

log = logging.getLogger("patchcert")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_MISSING = 2
EXIT_INVALID = 3

_CIFAR_RECORD = 3073  # 1 label byte + 3 * 32 * 32 pixel bytes

IDX_UBYTE = 0x08
IDX_FLOAT32 = 0x0D


# ---------------------------------------------------------------------------
# binary formats


def load_cifar10_binary(path) -> LabeledDataset:
    """Parse the standard CIFAR-10 binary batch layout into a dataset."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) % _CIFAR_RECORD:
        raise FormatError(
            f"CIFAR-10 file length {len(blob)} is not a multiple of {_CIFAR_RECORD}; "
            f"truncated at byte offset {len(blob) - len(blob) % _CIFAR_RECORD}"
        )
    n = len(blob) // _CIFAR_RECORD
    if n == 0:
        return LabeledDataset(
            images=np.zeros((0, 32, 32, 3), dtype=np.float32),
            labels=np.zeros(0, dtype=np.int64),
            splits=np.array([], dtype=object),
            k=10,
        )
    records = np.frombuffer(blob, dtype=np.uint8).reshape(n, _CIFAR_RECORD)
    labels = records[:, 0].astype(np.int64)
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        raise FormatError(
            f"label byte {labels[bad[0]]} > 9 at byte offset {int(bad[0]) * _CIFAR_RECORD}"
        )
    planes = records[:, 1:].reshape(n, 3, 32, 32)
    images = np.ascontiguousarray(planes.transpose(0, 2, 3, 1)).astype(np.float32) / 255.0
    return LabeledDataset(
        images=images, labels=labels, splits=np.array(["test"] * n, dtype=object), k=10
    )


def load_idx_tensor(path, scale_bytes: bool = True) -> np.ndarray:
    """Read an IDX tensor; unsigned bytes are scaled to [0,1] by default."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[0] != 0 or blob[1] != 0:
        raise FormatError(f"bad IDX magic {blob[:4]!r}")
    code, ndim = blob[2], blob[3]
    if code not in (IDX_UBYTE, IDX_FLOAT32):
        raise FormatError(f"unsupported IDX type code 0x{code:02x}")
    head = 4 + 4 * ndim
    if len(blob) < head:
        raise FormatError("IDX header truncated")
    dims = struct.unpack(f">{ndim}I", blob[4:head])
    count = int(np.prod(dims)) if ndim else 1
    itemsize = 1 if code == IDX_UBYTE else 4
    expect = head + count * itemsize
    if len(blob) != expect:
        raise FormatError(
            f"IDX payload is {len(blob) - head} bytes but dims {dims} require {count * itemsize}"
        )
    if code == IDX_UBYTE:
        data = np.frombuffer(blob, dtype=np.uint8, offset=head).reshape(dims)
        return data.astype(np.float32) / 255.0 if scale_bytes else data.copy()
    return np.frombuffer(blob, dtype=">f4", offset=head).reshape(dims).astype(np.float32)


def write_idx_tensor(path, arr: np.ndarray) -> None:
    """Write float32 or uint8 data in IDX layout (big-endian)."""
    arr = np.asarray(arr)
    if arr.dtype == np.uint8:
        code, payload = IDX_UBYTE, arr.tobytes()
    elif arr.dtype == np.float32:
        code, payload = IDX_FLOAT32, arr.astype(">f4").tobytes()
    else:
        raise ParameterError(f"IDX writer supports uint8/float32, got {arr.dtype}")
    with open(path, "wb") as fh:
        fh.write(bytes([0, 0, code, arr.ndim]))
        fh.write(struct.pack(f">{arr.ndim}I", *arr.shape))
        fh.write(payload)


def write_ppm(path, pixels: np.ndarray) -> None:
    """Binary PPM (P6) from float pixels in [0,1]; grayscale is replicated."""
    arr = np.asarray(pixels)
    if arr.ndim != 3 or arr.shape[2] not in (1, 3):
        raise ParameterError(f"PPM writer expects h*w*{{1,3}}, got {arr.shape}")
    if arr.shape[2] == 1:
        arr = np.repeat(arr, 3, axis=2)
    data = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    h, w = data.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def write_pgm(path, gray: np.ndarray) -> None:
    """Binary PGM (P5) from a 2-D uint8 grid (masks use 0 and 255)."""
    arr = np.asarray(gray)
    if arr.ndim != 2:
        raise ParameterError(f"PGM writer expects a 2-D grid, got {arr.shape}")
    data = arr.astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


# ---------------------------------------------------------------------------
# config plumbing and reports


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def write_report(out_dir, name: str, text: str) -> str:
    """Write a report exactly once; identical re-runs are no-ops."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    payload = text.encode("utf-8")
    if os.path.exists(path):
        with open(path, "rb") as fh:
            if fh.read() == payload:
                log.info("report %s unchanged", path)
                return path
        raise PatchcertError(f"refusing to clobber existing report {path} with new content")
    with open(path, "wb") as fh:
        fh.write(payload)
    log.info("wrote %s", path)
    return path


def _csv_text(rows, fieldnames, comment: str | None = None) -> str:
    buf = io.StringIO()
    if comment:
        buf.write(f"# {comment}\n")
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n", extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags through the exit-code contract."""

    def error(self, message):
        raise ParameterError(message)


def _merge_config(args, keys) -> dict:
    """Resolve settings: JSON config file first, explicit flags override."""
    merged = {}
    if getattr(args, "config", None):
        if not os.path.exists(args.config):
            raise FileNotFoundError(f"config file not found: {args.config}")
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ParameterError(f"config file {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ParameterError("config file must hold a JSON object")
        merged.update(loaded)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _config_number(cfg: dict, key: str, default, kind=int):
    """cfg[key] (else default) converted by kind; a wrong type is a ParameterError."""
    value = cfg.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"config value {key}={value!r} is not {kind.__name__}") from exc


def _int_list(text) -> list[int]:
    tokens = text if isinstance(text, list) else [t for t in str(text).split(",") if t.strip()]
    try:
        return [int(tok) for tok in tokens]
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"expected comma-separated integers, got {text!r}") from exc


def _require_file(path, what: str) -> str:
    if path is None:
        raise ParameterError(f"{what} path is required")
    if not os.path.exists(path):
        raise FileNotFoundError(f"{what} not found: {path}")
    return path


def _load_dataset(cfg: dict, seed: int) -> LabeledDataset:
    fmt = cfg.get("data_format", "stripe")
    if fmt == "cifar10":
        return load_cifar10_binary(_require_file(cfg.get("data"), "dataset"))
    if fmt == "idx":
        images = load_idx_tensor(_require_file(cfg.get("data"), "dataset"))
        labels = load_idx_tensor(_require_file(cfg.get("labels"), "labels"), scale_bytes=False)
        if images.ndim == 3:
            images = images[..., None]
        labels = labels.astype(np.int64).ravel()
        k = int(labels.max()) + 1 if labels.size else 2
        return LabeledDataset(
            images=images.astype(np.float32),
            labels=labels,
            splits=np.array(["test"] * len(labels), dtype=object),
            k=max(k, 2),
        )
    if fmt == "stripe":
        return make_stripe_dataset(
            n=_config_number(cfg, "stripe_n", 256),
            h=_config_number(cfg, "stripe_h", 16),
            w=_config_number(cfg, "stripe_w", 16),
            k=_config_number(cfg, "stripe_k", 4),
            noise=_config_number(cfg, "stripe_noise", 0.1, float),
            seed=seed,
        )
    raise ParameterError(f"unknown data format {fmt!r}")


def _dataset_split(data: LabeledDataset, split: str) -> LabeledDataset:
    if split == "all":
        return data
    sub = data.subset(split)
    if not len(sub):
        present = ", ".join(sorted(set(data.splits.tolist()))) or "none"
        raise ParameterError(f"dataset has no {split!r} split (splits present: {present}); "
                             "choose one of those or --split all")
    return sub


def _spec_from(cfg: dict) -> AblationSpec:
    return AblationSpec(
        kind=cfg.get("ablation", "column"),
        b=_config_number(cfg, "b", 3),
        s=_config_number(cfg, "stride", 1),
        offset=_config_number(cfg, "offset", 0),
    )


def _check_compat(model: Model, data: LabeledDataset) -> None:
    shape = data.images.shape[1:]
    want = (model.cfg.h, model.cfg.w, model.cfg.c)
    if shape != want:
        raise ConfigError(f"checkpoint expects images {want}, dataset has {shape}")
    if data.k > model.cfg.k:
        raise ConfigError(f"dataset has {data.k} classes, checkpoint only {model.cfg.k}")


# ---------------------------------------------------------------------------
# commands


def cmd_ablate(args) -> int:
    keys = ["data", "data_format", "labels", "index", "ablation", "b", "stride", "offset",
            "stripe_n", "stripe_h", "stripe_w", "stripe_k", "stripe_noise"]
    cfg = _merge_config(args, keys)
    data = _load_dataset(cfg, args.seed)
    index = _config_number(cfg, "index", 0)
    if not 0 <= index < len(data):
        raise ParameterError(f"image index {index} outside dataset of {len(data)}")
    spec = _spec_from(cfg)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    ablations = ablation_set(data.images[index], spec)
    for i, abl in enumerate(ablations):
        write_ppm(os.path.join(out, f"abl_{i}.ppm"), abl.pixels)
        write_pgm(os.path.join(out, f"mask_{i}.pgm"), abl.mask * 255)
    print(f"wrote {len(ablations)} ablations to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    keys = ["data_format", "data", "labels", "stripe_n", "stripe_h", "stripe_w", "stripe_k",
            "stripe_noise", "epochs", "batch_size", "lr", "momentum", "weight_decay",
            "b_train", "kind", "patience", "p", "d", "heads", "layers"]
    cfg = _merge_config(args, keys)
    data = _load_dataset(cfg, args.seed)
    h, w, c = data.images.shape[1:]
    vit_cfg = ViTConfig(
        h=int(h), w=int(w), c=int(c),
        p=_config_number(cfg, "p", 4), d=_config_number(cfg, "d", 32),
        heads=_config_number(cfg, "heads", 4), layers=_config_number(cfg, "layers", 2),
        k=data.k,
    )
    train_cfg = TrainConfig(
        epochs=_config_number(cfg, "epochs", 30),
        batch_size=_config_number(cfg, "batch_size", 32),
        lr=_config_number(cfg, "lr", 0.05, float),
        momentum=_config_number(cfg, "momentum", 0.9, float),
        weight_decay=_config_number(cfg, "weight_decay", 5e-4, float),
        b_train=_config_number(cfg, "b_train", 3),
        kind=cfg.get("kind", "column"),
        seed=args.seed,
        patience=_config_number(cfg, "patience", 5),
    )
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    stamp = config_hash({"cfg": cfg, "seed": args.seed, "vit": vit_cfg.to_dict()})
    model = Model.init(vit_cfg, seed=args.seed)
    result = fit(model, data, train_cfg, log_path=os.path.join(out, f"train-{stamp}.jsonl"))
    ckpt = os.path.join(out, f"ckpt-{stamp}.svit")
    save_checkpoint(result["model"], ckpt)
    print(f"best epoch {result['best_epoch']} "
          f"val_ablation_acc {result['val_history'][result['best_epoch']]:.4f}")
    print(f"checkpoint: {ckpt}")
    return EXIT_OK


def _certify_report(model, data, spec, patch_sizes, delta_mode):
    _check_compat(model, data)
    if max(patch_sizes) > min(model.cfg.h, model.cfg.w):
        raise ParameterError(
            f"patch size {max(patch_sizes)} exceeds image side {min(model.cfg.h, model.cfg.w)}"
        )
    return certified_accuracy(data, model, spec, patch_sizes, delta_mode)


def cmd_certify(args) -> int:
    keys = ["ckpt", "data", "data_format", "labels", "split", "ablation", "b", "stride",
            "offset", "patch_sizes", "delta_mode", "stripe_n", "stripe_h", "stripe_w",
            "stripe_k", "stripe_noise"]
    cfg = _merge_config(args, keys)
    model = load_checkpoint(_require_file(cfg.get("ckpt"), "checkpoint"))
    data = _dataset_split(_load_dataset(cfg, args.seed), cfg.get("split", "test"))
    spec = _spec_from(cfg)
    patch_sizes = _int_list(cfg.get("patch_sizes", "2"))
    delta_mode = cfg.get("delta_mode", "safe")
    report = _certify_report(model, data, spec, patch_sizes, delta_mode)
    resolved = {"command": "certify", "cfg": cfg, "seed": args.seed}
    stamp = config_hash(resolved)
    out = args.out or "."
    json_text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    rows = [
        {
            "m": entry["m"],
            "delta": entry["delta"],
            "certified_accuracy": entry["accuracy"],
            "standard_accuracy": report["standard_accuracy"],
        }
        for entry in report["certified"]
    ]
    csv_text = _csv_text(rows, ["m", "delta", "certified_accuracy", "standard_accuracy"])
    jpath = write_report(out, f"certify-{stamp}.json", json_text)
    write_report(out, f"certify-{stamp}.csv", csv_text)
    print(f"standard accuracy {report['standard_accuracy']:.4f}")
    for entry in report["certified"]:
        print(f"m={entry['m']} delta={entry['delta']} certified {entry['accuracy']:.4f}")
    print(f"report: {jpath}")
    return EXIT_OK


def cmd_delta(args) -> int:
    keys = ["h", "w", "ablation", "b", "stride", "offset", "patch_sizes"]
    cfg = _merge_config(args, keys)
    h = _config_number(cfg, "h", 224)
    w = _config_number(cfg, "w", 224)
    spec = _spec_from(cfg)
    patch_sizes = _int_list(cfg.get("patch_sizes", "32"))
    header = f"{'m':>5} {'safe':>10} {'paper':>10} {'oracle':>10}  note"
    print(f"image {h}x{w}, {spec.kind} b={spec.b} s={spec.s} offset={spec.offset}")
    print(header)
    flagged = False
    for m in patch_sizes:
        safe = delta_closed_form(spec, m, "safe", dims=(h, w))
        paper = delta_closed_form(spec, m, "paper")
        try:
            oracle = str(delta_oracle(h, w, spec, m))
        except BudgetError:
            oracle = "skipped"
        notes = []
        if oracle != "skipped":
            if paper < int(oracle):
                notes.append("PAPER-UNDERCOUNTS")
                flagged = True
            if safe != int(oracle):
                notes.append("SAFE-MISMATCH")
                flagged = True
        elif paper < safe:
            notes.append("paper<safe")
            flagged = True
        print(f"{m:>5} {safe:>10} {paper:>10} {oracle:>10}  {','.join(notes)}")
    if flagged:
        print("note: flagged rows mark thresholds below the exact intersection count")
    return EXIT_OK


def cmd_sweep(args) -> int:
    keys = ["ckpt", "data", "data_format", "labels", "split", "ablation", "b_grid",
            "stride_grid", "offset", "patch_sizes", "delta_mode", "stripe_n", "stripe_h",
            "stripe_w", "stripe_k", "stripe_noise"]
    cfg = _merge_config(args, keys)
    model = load_checkpoint(_require_file(cfg.get("ckpt"), "checkpoint"))
    data = _dataset_split(_load_dataset(cfg, args.seed), cfg.get("split", "test"))
    b_grid = _int_list(cfg.get("b_grid", "2,3,4"))
    s_grid = _int_list(cfg.get("stride_grid", "1"))
    patch_sizes = _int_list(cfg.get("patch_sizes", "2"))
    delta_mode = cfg.get("delta_mode", "safe")
    kind = cfg.get("ablation", "column")
    points = []
    for b in b_grid:
        for s in s_grid:
            if (b, s) in points:
                log.warning("duplicate sweep point b=%d s=%d skipped", b, s)
                continue
            points.append((b, s))
    rows = []
    for b, s in points:
        spec = AblationSpec(kind=kind, b=b, s=s, offset=_config_number(cfg, "offset", 0))
        report = _certify_report(model, data, spec, patch_sizes, delta_mode)
        for entry in report["certified"]:
            rows.append(
                {
                    "b": b,
                    "s": s,
                    "m": entry["m"],
                    "delta": entry["delta"],
                    "standard_accuracy": report["standard_accuracy"],
                    "certified_accuracy": entry["accuracy"],
                }
            )
    stamp = config_hash({"command": "sweep", "cfg": cfg, "seed": args.seed})
    out = args.out or "."
    csv_text = _csv_text(
        rows, ["b", "s", "m", "delta", "standard_accuracy", "certified_accuracy"]
    )
    path = write_report(out, f"sweep-{stamp}.csv", csv_text)
    print(f"swept {len(points)} grid points; report: {path}")
    return EXIT_OK


def cmd_bench(args) -> int:
    keys = ["h", "w", "c", "p", "d", "heads", "layers", "k", "ablation", "b_grid",
            "stride", "offset", "batch", "trials"]
    cfg = _merge_config(args, keys)
    vit_cfg = ViTConfig(
        h=_config_number(cfg, "h", 224), w=_config_number(cfg, "w", 224),
        c=_config_number(cfg, "c", 3), p=_config_number(cfg, "p", 16),
        d=_config_number(cfg, "d", 128), heads=_config_number(cfg, "heads", 4),
        layers=_config_number(cfg, "layers", 3), k=_config_number(cfg, "k", 10),
    )
    model = Model.init(vit_cfg, seed=args.seed)
    b_grid = _int_list(cfg.get("b_grid", "13,19,37,67"))
    stride = _config_number(cfg, "stride", 1)
    batch = _config_number(cfg, "batch", 8)
    trials = _config_number(cfg, "trials", 5)
    rng = np.random.default_rng(args.seed)
    image = rng.uniform(0.0, 1.0, size=(vit_cfg.h, vit_cfg.w, vit_cfg.c)).astype(np.float32)
    rows = []
    for b in sorted(set(b_grid)):
        spec = AblationSpec(kind=cfg.get("ablation", "column"), b=b, s=stride,
                            offset=_config_number(cfg, "offset", 0))
        full_set = ablation_set(image, spec)
        step = max(1, len(full_set) // batch)
        sample = full_set[::step][:batch]
        cost = smoothing_cost(vit_cfg, spec)
        timing = wallclock_harness(model, sample, trials=trials)
        rows.append(
            {
                "b": b,
                "stride": stride,
                "n_tokens_mean": float(np.mean(cost["tokens"])),
                "macs_drop": cost["macs_drop"],
                "macs_full": cost["macs_full"],
                "mac_ratio": cost["mac_ratio"],
                "time_drop_s": timing["time_drop_mean_s"],
                "time_full_s": timing["time_full_mean_s"],
                "speedup": timing["speedup"],
            }
        )
        log.info("bench b=%d speedup %.2fx", b, timing["speedup"])
    # the MAC model is deterministic and named by config hash; measured
    # times differ per run, so they go to a run-stamped file beside it
    stamp = config_hash({"command": "bench", "cfg": cfg, "seed": args.seed})
    run = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    out = args.out or "."
    mac_text = _csv_text(
        rows, ["b", "stride", "n_tokens_mean", "macs_drop", "macs_full", "mac_ratio"],
        comment="MAC columns cover one full smoothed pass",
    )
    time_text = _csv_text(
        rows, ["b", "stride", "time_drop_s", "time_full_s", "speedup"],
        comment=f"timing a fixed batch of {batch} ablations per row over {trials} trials",
    )
    path = write_report(out, f"bench-{stamp}.csv", mac_text)
    time_path = write_report(out, f"bench-{stamp}-{run}.csv", time_text)
    print(f"bench report: {path}")
    print(f"timing report: {time_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="patchcert", description=__doc__)
    parser.add_argument("--version", action="version", version=f"patchcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; explicit flags override it")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output directory (default: current)")

    def data_flags(p):
        p.add_argument("--data")
        p.add_argument("--labels", help="labels IDX file (idx format only)")
        p.add_argument("--data-format", dest="data_format",
                       choices=["cifar10", "idx", "stripe"])
        p.add_argument("--split", choices=["train", "val", "test", "all"])
        for name, typ in [("stripe-n", int), ("stripe-h", int), ("stripe-w", int),
                          ("stripe-k", int), ("stripe-noise", float)]:
            p.add_argument(f"--{name}", dest=name.replace("-", "_"), type=typ)

    def spec_flags(p):
        p.add_argument("--ablation", choices=["column", "block"])
        p.add_argument("--b", type=int)
        p.add_argument("--stride", type=int)
        p.add_argument("--offset", type=int)

    p = sub.add_parser("ablate", help="dump an image's ablations as PPM/PGM")
    common(p); data_flags(p); spec_flags(p)
    p.add_argument("--index", type=int)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("train", help="train the base classifier on random ablations")
    common(p); data_flags(p)
    for name, typ in [("epochs", int), ("batch-size", int), ("lr", float),
                      ("momentum", float), ("weight-decay", float), ("b-train", int),
                      ("patience", int), ("p", int), ("d", int), ("heads", int),
                      ("layers", int)]:
        p.add_argument(f"--{name}", dest=name.replace("-", "_"), type=typ)
    p.add_argument("--kind", choices=["column", "block"])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("certify", help="standard and certified accuracy of a checkpoint")
    common(p); data_flags(p); spec_flags(p)
    p.add_argument("--ckpt")
    p.add_argument("--patch-sizes", dest="patch_sizes")
    p.add_argument("--delta-mode", dest="delta_mode", choices=["safe", "paper", "oracle"])
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("delta", help="print certification thresholds and flag gaps")
    common(p); spec_flags(p)
    p.add_argument("--h", type=int)
    p.add_argument("--w", type=int)
    p.add_argument("--patch-sizes", dest="patch_sizes")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("sweep", help="certify over a grid of ablation sizes/strides")
    common(p); data_flags(p)
    p.add_argument("--ablation", choices=["column", "block"])
    p.add_argument("--offset", type=int)
    p.add_argument("--ckpt")
    p.add_argument("--b-grid", dest="b_grid")
    p.add_argument("--stride-grid", dest="stride_grid")
    p.add_argument("--patch-sizes", dest="patch_sizes")
    p.add_argument("--delta-mode", dest="delta_mode", choices=["safe", "paper", "oracle"])
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="MAC model and wall-clock speedup report")
    common(p); spec_flags(p)
    for name in ["h", "w", "c", "p", "d", "heads", "layers", "k", "batch", "trials"]:
        p.add_argument(f"--{name}", type=int)
    p.add_argument("--b-grid", dest="b_grid")
    p.set_defaults(func=cmd_bench)
    return parser


def _log_level() -> int:
    name = os.environ.get("PATCHCERT_LOG", "error").lower()
    return {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        name, logging.ERROR
    )


def _emit_error(exc: Exception, code: int) -> None:
    record = {"error": str(exc), "type": type(exc).__name__, "exit_code": code}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    logging.basicConfig(level=_log_level(), format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except FileNotFoundError as exc:
        _emit_error(exc, EXIT_MISSING)
        return EXIT_MISSING
    except FormatError as exc:
        _emit_error(exc, EXIT_MISSING)
        return EXIT_MISSING
    except (ParameterError, ConfigError) as exc:
        _emit_error(exc, EXIT_INVALID)
        return EXIT_INVALID
    except PatchcertError as exc:
        _emit_error(exc, EXIT_INTERNAL)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
