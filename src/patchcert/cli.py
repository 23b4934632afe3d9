"""Command-line surface: dataset ingestion, persistence, reports.

Commands: ablate, train, certify, delta, sweep, bench. Each command
declares its options once, in OPTIONS: every key there is both a
JSON config-file key and the flag --key-with-dashes, explicit flags
override the config file, and a command has no flag or config key it
does not read. main parses a command's options once, after --out is
checked and before the command runs, and a writing command checks every
output name before any work.
Every command is deterministic given (config, seed) except for measured wall-clock
columns, which bench writes to a separate run-stamped file. Reports are
named by a content hash of the resolved run config, so re-runs
regenerate the same file and sweeps never clobber unrelated results.

Exit codes: 0 success, 1 internal error or an output that cannot be
written, 2 missing/corrupt input (a checkpoint whose forward is not
finite too), 3 invalid parameters (a training run that diverges too).
Set PATCHCERT_LOG={error,info,debug} for logging: one JSON object per
line on standard error.

certify, sweep and bench overlap an image's stacks on threads when the first
of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS set to a positive
count leaves at least two CPUs per BLAS thread and the stacks pass
vit.POOL_MACS_PER_CALL, as an ImageNet-sized image's do. On 2 CPUs, certify of
24 images at 224x224x3, column b=19, took a median 3.29 s with
OPENBLAS_NUM_THREADS=1, 4.21 s unset (process start included, 5 runs each).
"""

from __future__ import annotations

import argparse
import csv
import errno
import hashlib
import io
import json
import logging
import math
import os
import struct
import sys
import time
import typing
from dataclasses import fields, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .ablation import KINDS, AblationSpec, ablation_anchors, ablation_set, validate_image
from .bench import smoothing_cost
from .certify import certified_accuracy, delta_closed_form, delta_oracle
from .errors import (BudgetError, DivergenceError, FormatError, InputError, ParameterError,
                     PatchcertError)
from .train import VAL_PERCENT, LabeledDataset, TrainConfig, fit, make_stripe_dataset
from .vit import Model, ViTConfig, load_checkpoint, per_ablation_predictions, save_checkpoint

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


def load_cifar10_binary(path) -> tuple[np.ndarray, np.ndarray]:
    """(images, labels) of a CIFAR-10 binary batch, pixels as stored: (n, 32, 32, 3) uint8."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) % _CIFAR_RECORD:
        raise FormatError(
            f"CIFAR-10 file length {len(blob)} is not a multiple of {_CIFAR_RECORD}; "
            f"truncated at byte offset {len(blob) - len(blob) % _CIFAR_RECORD}"
        )
    n = len(blob) // _CIFAR_RECORD
    records = np.frombuffer(blob, dtype=np.uint8).reshape(n, _CIFAR_RECORD)
    labels = records[:, 0].astype(np.int64)
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        raise FormatError(
            f"label byte {labels[bad[0]]} > 9 at byte offset {int(bad[0]) * _CIFAR_RECORD}"
        )
    return records[:, 1:].reshape(n, 3, 32, 32).transpose(0, 2, 3, 1), labels


def load_idx_tensor(path) -> np.ndarray:
    """Read an IDX tensor as stored: a uint8 view of the file, or float32."""
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
    count = math.prod(dims)  # exact: np.prod wraps around at 2**63
    itemsize = 1 if code == IDX_UBYTE else 4
    expect = head + count * itemsize
    if len(blob) != expect:
        raise FormatError(
            f"IDX payload is {len(blob) - head} bytes but dims {dims} require {count * itemsize}"
        )
    if code == IDX_UBYTE:
        return np.frombuffer(blob, dtype=np.uint8, offset=head).reshape(dims)
    return np.frombuffer(blob, dtype=">f4", offset=head).reshape(dims).astype(np.float32)


def _write_netpbm(path, data: np.ndarray) -> None:
    """A binary Netpbm file of a uint8 grid: PPM (P6) for h*w*3, PGM (P5) for h*w."""
    h, w = data.shape[:2]
    header = f"{'P6' if data.ndim == 3 else 'P5'}\n{w} {h}\n255\n"
    _write_whole(path, header.encode("ascii") + data.tobytes())


# ---------------------------------------------------------------------------
# config plumbing and reports


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _write_whole(path, payload: bytes) -> None:
    """Write payload to path whole or not at all: to a temporary name in path's
    directory, then renamed over path. A write or rename that fails removes the
    temporary file. open, unlike mkstemp, gives the file the umask's mode bits."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_reports(reports: dict) -> None:
    """Write each report (path -> text) exactly once; identical re-runs are no-ops.

    Every path is checked against the file already there before any
    report is written, so a refused report leaves no new one beside it.
    """
    new = {}
    for path, text in reports.items():
        payload = text.encode("utf-8")
        if not os.path.exists(path):
            new[path] = payload
            continue
        with open(path, "rb") as fh:
            if fh.read() != payload:
                raise PatchcertError(f"refusing to clobber existing report {path} with new content")
        log.info("report %s unchanged", path)
    for path, payload in new.items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        _write_whole(path, payload)
        log.info("wrote %s", path)


def _output_paths(out: str, *names: str) -> list[str]:
    """out/name for each name; one that exists and is not a regular file is
    refused, before any work, as writing it would fail after."""
    paths = [os.path.join(out, name) for name in names]
    for path in paths:
        if os.path.exists(path) and not os.path.isfile(path):
            code = errno.EISDIR if os.path.isdir(path) else errno.EEXIST
            raise OSError(code, os.strerror(code), path)  # IsADirectoryError or FileExistsError
    return paths


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


# ---------------------------------------------------------------------------
# options: one table per command, key -> (kind, default)
#
# kind is int, float, a tuple of choices, _int_list (one or more
# comma-separated integers, or a nonempty JSON list; a repeated value
# counts once, in the order first given) or _path (a file path, used as
# given). Each key is both a config-file key and the flag --key-with-dashes.


def _int_list(value) -> list[int]:
    tokens = value if isinstance(value, list) else [t for t in str(value).split(",") if t.strip()]
    if not tokens:
        raise ValueError("empty integer list")
    return list(dict.fromkeys(int(str(tok)) for tok in tokens))  # via str, as in _convert


def _path(value):
    if value is not None and not isinstance(value, str):
        raise TypeError(f"{value!r} is not a path")
    return value


_KIND_NAMES = {_int_list: "one or more comma-separated integers", _path: "a path"}

_DATA = {
    "data": (_path, None), "labels": (_path, None),  # labels: IDX file, idx format only
    "data_format": (("cifar10", "idx", "stripe"), "stripe"),
    "stripe_n": (int, 256), "stripe_h": (int, 16), "stripe_w": (int, 16), "stripe_k": (int, 4),
    "stripe_noise": (float, 0.1),
}
_SPLIT = {"split": (("train", "val", "test", "all"), "test")}
_KIND = {"ablation": (KINDS, "column"), "offset": (int, 0)}
_SPEC = {**_KIND, "b": (int, 3), "stride": (int, 1)}
# train's training options: TrainConfig's fields, types and defaults, but seed (--seed)
_TRAINING = {f.name: (KINDS if f.name == "kind" else typing.get_type_hints(TrainConfig)[f.name],
                      f.default) for f in fields(TrainConfig) if f.name != "seed"}

OPTIONS = {
    "ablate": {**_DATA, **_SPEC, "index": (int, 0)},
    "train": {
        **_DATA, **_TRAINING, "p": (int, 4), "d": (int, 32), "heads": (int, 4), "layers": (int, 2),
    },
    "certify": {
        **_DATA, **_SPLIT, **_SPEC, "ckpt": (_path, None), "patch_sizes": (_int_list, "2"),
    },
    "delta": {**_SPEC, "h": (int, 224), "w": (int, 224), "patch_sizes": (_int_list, "32")},
    "sweep": {
        **_DATA, **_SPLIT, **_KIND, "ckpt": (_path, None),
        "b_grid": (_int_list, "2,3,4"), "stride_grid": (_int_list, "1"),
        "patch_sizes": (_int_list, "2"),
    },
    "bench": {
        **_KIND, "stride": (int, 1), "b_grid": (_int_list, "13,19,37,67"),
        "h": (int, 224), "w": (int, 224), "c": (int, 3), "k": (int, 10),
        "p": (int, 16), "d": (int, 128), "heads": (int, 4), "layers": (int, 3),
        "trials": (int, 5),
    },
}


def _convert(key: str, kind, value):
    """value converted by kind; anything it does not accept is a ParameterError."""
    if isinstance(kind, tuple):
        if value in kind:
            return value
        want = "one of " + ", ".join(kind)
    else:
        try:
            # via str: JSON true is then no number and 3.7 no int, where int() gives 1 and 3
            return kind(str(value) if kind in (int, float) else value)
        except (TypeError, ValueError):
            want = _KIND_NAMES.get(kind, kind.__name__)
    raise ParameterError(f"option {key}={value!r} is not {want}")


def _options(args) -> tuple[dict, dict]:
    """(raw, o): the JSON config overlaid with explicit flags, and the command's options.

    main calls this once, after --out is checked, and passes both to the
    command. raw is hashed, exactly as given, into report names; o holds
    every option of the command converted, with its default where unset.
    A config key the command does not declare is a ParameterError.
    """
    raw = {}
    if args.config:
        _require_file(args.config, "config file")
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ParameterError(f"config file {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ParameterError("config file must hold a JSON object")
        raw.update(loaded)
    table = OPTIONS[args.command]
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise ParameterError(
            f"config file {args.config} has keys {args.command} does not read: "
            f"{', '.join(unknown)}; its keys are {', '.join(table)}"
        )
    for key in table:
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    o = {key: _convert(key, kind, raw.get(key, default)) for key, (kind, default) in table.items()}
    return raw, o


def _require_file(path, what: str) -> str:
    """path, if it names a regular file the process can read; a directory, any other
    kind or a file it may not read is missing input."""
    if path is None:
        raise ParameterError(f"{what} path is required")
    if not os.path.isfile(path):
        problem = "is not a regular file" if os.path.exists(path) else "not found"
        raise FileNotFoundError(f"{what} {problem}: {path}")
    if not os.access(path, os.R_OK):
        raise InputError(f"{what} is not readable: {path}")
    return path


def _check_out(out: str) -> None:
    """Refuse, creating nothing, an --out that cannot name a directory: an empty
    path, one under an existing non-directory or a directory the process may not
    write into, or one with a name too long."""
    if not out:
        raise ParameterError("--out is empty; it must name a directory")
    path, missing = os.path.abspath(out), []
    while True:  # up to the nearest existing path, collecting the names still to make
        try:
            os.stat(path)
            break
        except (FileNotFoundError, NotADirectoryError):
            path, name = os.path.split(path)
            missing.append(name)
        except OSError as exc:  # a name too long, say
            raise ParameterError(f"--out {out} cannot name a directory: {exc.strerror}") from exc
    if not os.path.isdir(path):
        raise ParameterError(f"--out {out}: {path} exists and is not a directory")
    if not os.access(path, os.W_OK | os.X_OK):
        raise ParameterError(f"--out {out}: directory {path} is not writable")
    if any(len(os.fsencode(name)) > os.pathconf(path, "PC_NAME_MAX") for name in missing):
        raise ParameterError(f"--out {out} has a name longer than its file system allows")


def _load_dataset(o: dict, seed: int) -> LabeledDataset:
    """The configured dataset. A file carries no split, so every record of one is tagged
    test, and its uint8 pixels decode here, once, into one float32 copy scaled to [0, 1]."""
    fmt = o["data_format"]
    if fmt == "stripe":
        return make_stripe_dataset(
            n=o["stripe_n"], h=o["stripe_h"], w=o["stripe_w"], k=o["stripe_k"],
            noise=o["stripe_noise"], seed=seed,
        )
    if fmt == "cifar10":
        images, labels = load_cifar10_binary(_require_file(o["data"], "dataset"))
        k = 10
    else:
        images = load_idx_tensor(_require_file(o["data"], "dataset"))
        labels = load_idx_tensor(_require_file(o["labels"], "labels"))
        if labels.dtype != np.uint8:  # a float label would be truncated to some class
            raise FormatError(
                f"labels file {o['labels']} has IDX type 0x{IDX_FLOAT32:02x} (float32); "
                f"labels must be unsigned bytes, type 0x{IDX_UBYTE:02x}")
        if images.ndim not in (3, 4) or labels.ndim != 1:
            raise FormatError(
                f"IDX images must be (n, h, w) or (n, h, w, c) and labels (n,); "
                f"got {images.shape} and {labels.shape}")
        if len(images) != len(labels):
            raise FormatError(
                f"IDX images file {o['data']} holds {len(images)} images but labels file "
                f"{o['labels']} holds {len(labels)} labels")
        if images.ndim == 3:
            images = images[..., None]
        labels = labels.astype(np.int64)
        k = max(int(labels.max()) + 1, 2) if labels.size else 2
    if images.dtype == np.uint8:
        images = np.divide(images, 255, dtype=np.float32, order="C")
    return LabeledDataset(images=images, labels=labels, splits=np.full(len(labels), "test"), k=k)


def _spec_from(o: dict) -> AblationSpec:
    return AblationSpec(kind=o["ablation"], b=o["b"], s=o["stride"], offset=o["offset"])


def _certify_each(o: dict, seed: int, grid):
    """Yield (spec, certified_accuracy report) per (b, stride) of grid, one at a time.

    The checkpoint, the split and every grid point are checked against
    each other, and every pixel of the split once, before the first point is certified.
    """
    model = load_checkpoint(_require_file(o["ckpt"], "checkpoint"))
    data = _load_dataset(o, seed)
    split = o["split"]
    sub = data if split == "all" else data.subset(split)
    if not len(sub):
        present = ", ".join(sorted(set(data.splits.tolist()))) or "none"
        raise ParameterError(f"dataset has no images in split {split!r} "
                             f"(splits present: {present})")
    shape = sub.images.shape[1:]
    want = (model.cfg.h, model.cfg.w, model.cfg.c)
    if shape != want:
        raise ParameterError(f"checkpoint expects images {want}, dataset has {shape}")
    validate_image(sub.images.reshape(-1, *shape[1:]))  # the split stacked as one tall image
    if sub.k > model.cfg.k:
        raise ParameterError(f"dataset has {sub.k} classes, checkpoint only {model.cfg.k}")
    specs = [AblationSpec(kind=o["ablation"], b=b, s=s, offset=o["offset"]) for b, s in grid]
    for spec in specs:
        spec.validate_for(model.cfg.h, model.cfg.w)
    for spec in specs:
        yield spec, certified_accuracy(sub, model, spec, o["patch_sizes"])


def _report_rows(spec: AblationSpec, report: dict) -> list[dict]:
    """One CSV row per patch size of a certified_accuracy report."""
    return [{"b": spec.b, "s": spec.s, "m": entry["m"], "delta": entry["delta"],
             "standard_accuracy": report["standard_accuracy"],
             "certified_accuracy": entry["accuracy"]} for entry in report["certified"]]


# ---------------------------------------------------------------------------
# commands


def cmd_ablate(args, raw: dict, o: dict) -> int:
    data = _load_dataset(o, args.seed)
    index = o["index"]
    if not 0 <= index < len(data):
        raise ParameterError(f"image index {index} outside dataset of {len(data)}")
    x = validate_image(data.images[index])  # checked, like the spec, before any file is made
    spec = _spec_from(o)
    anchors = ablation_anchors(x.shape[0], x.shape[1], spec)
    paths = _output_paths(args.out, *(name for i in range(len(anchors))
                                      for name in (f"abl_{i}.ppm", f"mask_{i}.pgm")))
    os.makedirs(args.out, exist_ok=True)
    for anchor, ppm, pgm in zip(anchors, paths[::2], paths[1::2]):  # one ablation alive at a time
        (abl,) = ablation_set(x, spec, [anchor])
        rgb = np.broadcast_to(abl.pixels, (*x.shape[:2], 3))  # gray replicated
        _write_netpbm(ppm, np.clip(np.rint(rgb * 255.0), 0, 255).astype(np.uint8))
        _write_netpbm(pgm, abl.mask * 255)
    print(f"wrote {len(anchors)} ablations to {args.out}")
    return EXIT_OK


def cmd_train(args, raw: dict, o: dict) -> int:
    data = _load_dataset(o, args.seed)
    if not (data.splits == "train").any():  # CIFAR-10 and IDX files carry no split
        n = len(data)
        if n < 2:
            raise ParameterError(f"training needs at least 2 records for train and val, got {n}")
        val = np.random.default_rng(args.seed).permutation(n)[:max(1, VAL_PERCENT * n // 100)]
        splits = np.full(n, "train")
        splits[val] = "val"
        data = replace(data, splits=splits)
    h, w, c = data.images.shape[1:]
    vit_cfg = ViTConfig(h=int(h), w=int(w), c=int(c), k=data.k,
                        **{f.name: o[f.name] for f in fields(ViTConfig) if f.name in o})
    train_cfg = TrainConfig(seed=args.seed, **{key: o[key] for key in _TRAINING})
    AblationSpec(train_cfg.kind, train_cfg.b_train).validate_for(vit_cfg.h, vit_cfg.w)
    stamp = config_hash({"cfg": raw, "seed": args.seed, "vit": vit_cfg.to_dict()})
    log_path, ckpt = _output_paths(args.out, f"train-{stamp}.jsonl", f"ckpt-{stamp}.svit")
    os.makedirs(args.out, exist_ok=True)
    model = Model.init(vit_cfg, seed=args.seed)
    result = fit(model, data, train_cfg, log_path=log_path)
    save_checkpoint(result["model"], ckpt)
    print(f"best epoch {result['best_epoch']} "
          f"val_ablation_acc {result['val_history'][result['best_epoch']]:.4f}")
    print(f"checkpoint: {ckpt}")
    return EXIT_OK


def cmd_certify(args, raw: dict, o: dict) -> int:
    stamp = config_hash({"command": "certify", "cfg": raw, "seed": args.seed})
    jpath, cpath = _output_paths(args.out, f"certify-{stamp}.json", f"certify-{stamp}.csv")
    ((spec, report),) = _certify_each(o, args.seed, [(o["b"], o["stride"])])
    json_text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    csv_text = _csv_text(_report_rows(spec, report),
                         ["m", "delta", "certified_accuracy", "standard_accuracy"])
    write_reports({jpath: json_text, cpath: csv_text})
    print(f"standard accuracy {report['standard_accuracy']:.4f}")
    for entry in report["certified"]:
        print(f"m={entry['m']} delta={entry['delta']} certified {entry['accuracy']:.4f}")
    print(f"report: {jpath}")
    return EXIT_OK


def cmd_delta(args, raw: dict, o: dict) -> int:
    h, w = o["h"], o["w"]
    spec = _spec_from(o)
    # every row is computed before any is printed, so a failed run prints nothing
    lines = [f"image {h}x{w}, {spec.kind} b={spec.b} s={spec.s} offset={spec.offset}",
             f"{'m':>5} {'safe':>10} {'paper':>10} {'oracle':>10}  note"]
    flagged = False
    for m in o["patch_sizes"]:
        safe = delta_closed_form(spec, m, "safe", dims=(h, w))
        paper = delta_closed_form(spec, m, "paper", dims=(h, w))
        try:
            oracle = str(delta_oracle(h, w, spec, m))
        except BudgetError:
            oracle = "skipped"
        notes = []
        if oracle != "skipped":
            if paper < int(oracle):
                notes.append("PAPER-UNDERCOUNTS")
            if safe != int(oracle):
                notes.append("SAFE-MISMATCH")
        elif paper < safe:
            notes.append("paper<safe")
        flagged = flagged or bool(notes)
        lines.append(f"{m:>5} {safe:>10} {paper:>10} {oracle:>10}  {','.join(notes)}")
    if flagged:
        lines.append("note: flagged rows mark thresholds below the exact intersection count")
    print("\n".join(lines))
    return EXIT_OK


def cmd_sweep(args, raw: dict, o: dict) -> int:
    grid = [(b, s) for b in o["b_grid"] for s in o["stride_grid"]]
    stamp = config_hash({"command": "sweep", "cfg": raw, "seed": args.seed})
    (path,) = _output_paths(args.out, f"sweep-{stamp}.csv")
    rows, points = [], 0
    for spec, report in _certify_each(o, args.seed, grid):
        rows += _report_rows(spec, report)
        points += 1
    csv_text = _csv_text(
        rows, ["b", "s", "m", "delta", "standard_accuracy", "certified_accuracy"]
    )
    write_reports({path: csv_text})
    print(f"swept {points} grid points; report: {path}")
    return EXIT_OK


def cmd_bench(args, raw: dict, o: dict) -> int:
    vit_cfg = ViTConfig(**{f.name: o[f.name] for f in fields(ViTConfig)})
    trials = o["trials"]
    if trials < 3:
        raise ParameterError(f"need at least 3 trials, got {trials}")
    specs = [AblationSpec(kind=o["ablation"], b=b, s=o["stride"], offset=o["offset"])
             for b in o["b_grid"]]
    costs = [smoothing_cost(vit_cfg, spec) for spec in specs]  # every spec checked before timing
    # the full-grid baseline: every column kept, so every cell survives, at
    # the same column anchors; all its ablations cost alike, so it is timed
    # once per run and charged per ablation of each set
    full_spec = AblationSpec(kind="column", b=vit_cfg.w, s=o["stride"], offset=o["offset"])
    full_count = len(ablation_anchors(vit_cfg.h, vit_cfg.w, full_spec))
    # the MAC model is deterministic and named by config hash; measured
    # times differ per run, so they go to a file beside it stamped with the run's start
    stamp = config_hash({"command": "bench", "cfg": raw, "seed": args.seed})
    run = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    path, time_path = _output_paths(args.out, f"bench-{stamp}.csv", f"bench-{stamp}-{run}.csv")
    model = Model.init(vit_cfg, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    image = rng.uniform(0.0, 1.0, size=(vit_cfg.h, vit_cfg.w, vit_cfg.c)).astype(np.float32)

    def seconds(spec):
        """Mean seconds of one smoothed pass of the engine, after an untimed warm-up pass."""
        per_ablation_predictions(image, spec, model.params, vit_cfg)
        start = time.perf_counter()
        for _ in range(trials):
            per_ablation_predictions(image, spec, model.params, vit_cfg)
        return (time.perf_counter() - start) / trials

    full_per_ablation = seconds(full_spec) / full_count
    rows = []
    for spec, cost in zip(specs, costs):
        time_drop = seconds(spec)
        time_full = full_per_ablation * len(cost["tokens"])
        rows.append(
            {
                "b": spec.b,
                "stride": spec.s,
                "n_tokens_mean": float(np.mean(cost["tokens"])),
                "macs_drop": cost["macs_drop"],
                "macs_full": cost["macs_full"],
                "mac_ratio": cost["mac_ratio"],
                "time_drop_s": time_drop,
                "time_full_s": time_full,
                "speedup": time_full / time_drop,
            }
        )
        log.info("bench b=%d speedup %.2fx", spec.b, rows[-1]["speedup"])
    mac_text = _csv_text(
        rows, ["b", "stride", "n_tokens_mean", "macs_drop", "macs_full", "mac_ratio"],
        comment="MAC columns cover one full smoothed pass",
    )
    time_text = _csv_text(
        rows, ["b", "stride", "time_drop_s", "time_full_s", "speedup"],
        comment=(f"mean seconds of one smoothed pass per row over {trials} trials; the full-grid "
                 "pass is timed once and scaled to each row's ablation count"),
    )
    write_reports({path: mac_text, time_path: time_text})
    print(f"bench report: {path}")
    print(f"timing report: {time_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

COMMANDS = {
    "ablate": (cmd_ablate, "dump an image's ablations as PPM/PGM"),
    "train": (cmd_train, "train the base classifier on random ablations"),
    "certify": (cmd_certify, "standard and certified accuracy of a checkpoint"),
    "delta": (cmd_delta, "print certification thresholds and flag gaps"),
    "sweep": (cmd_sweep, "certify over a grid of ablation sizes/strides"),
    "bench": (cmd_bench, "MAC model and timed speedup of the smoothing engine over the full grid"),
}


def _seed(value: str) -> int:
    seed = int(value)
    if seed < 0:  # numpy's generators refuse a negative seed
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="patchcert", description=__doc__)
    parser.add_argument("--version", action="version", version=f"patchcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text) in COMMANDS.items():
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; explicit flags override it")
        if name != "delta":  # the one command that only prints, and from no random draw
            p.add_argument("--seed", type=_seed, default=0)
            p.add_argument("--out", default=".", help="output directory (default: current)")
        for key, (kind, default) in OPTIONS[name].items():
            p.add_argument(
                "--" + key.replace("_", "-"), dest=key,
                type=kind if kind in (int, float) else None,
                choices=kind if isinstance(kind, tuple) else None,
                help=None if default is None else f"default: {default}",
            )
        p.set_defaults(func=func)
    return parser


def _log_level() -> int:
    name = os.environ.get("PATCHCERT_LOG", "error").lower()
    return {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        name, logging.ERROR
    )


def _emit_error(exc: Exception, code: int) -> None:
    record = {"error": str(exc), "type": type(exc).__name__, "exit_code": code}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


class _JsonLines(logging.Formatter):
    """One JSON object per log record, like fit's log and the error record."""

    def format(self, record: logging.LogRecord) -> str:
        return json.dumps(
            {"level": record.levelname.lower(), "logger": record.name,
             "message": record.getMessage()},
            sort_keys=True,
        )


def main(argv=None) -> int:
    handler = logging.StreamHandler()  # standard error, as of this call
    handler.setFormatter(_JsonLines())
    log.addHandler(handler)
    log.setLevel(_log_level())
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "out" in args:
            _check_out(args.out)
        return args.func(args, *_options(args))
    except (FileNotFoundError, InputError) as exc:
        _emit_error(exc, EXIT_MISSING)
        return EXIT_MISSING
    except (ParameterError, DivergenceError) as exc:
        _emit_error(exc, EXIT_INVALID)
        return EXIT_INVALID
    except (PatchcertError, OSError) as exc:  # an output path that cannot be written, say
        _emit_error(exc, EXIT_INTERNAL)
        return EXIT_INTERNAL
    finally:
        log.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
