"""Toy-scale vision transformer with fully-masked-token dropping.

The model is a pre-norm encoder over a *set* of positionally encoded
patch tokens plus a class token, whose final state is the readout:
attention sees exactly the tokens present, so grid cells whose entire
p*p region is masked can be removed before the encoder without changing
what the surviving tokens compute. The one production forward shrinks
the token sequence physically; certification and training both cut
each ablation's surviving cells from one cached plan of its set
(_stack_plan). masked_attention_oracle_forward is a separate float64
reference: it runs the full grid with the masked cells blocked as
attention keys, and shares no arithmetic with the production forward.

Parameters live in a flat name->array dict (float32) whose insertion
order doubles as the checkpoint manifest order.

A forward that overflows or gives a logit that is not finite raises
NonFiniteError in process_ablation instead of voting class 0.
"""

from __future__ import annotations

import contextvars
import functools
import json
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass

import numpy as np

from . import numerics as nx
# ablation_set is unused here, but certbench's traced run wraps it under
# the name vit.ablation_set, so it stays importable from this module.
from .ablation import (  # noqa: F401
    AblatedImage,
    AblationSpec,
    ablation_set,
    retained_axes,
    validate_image,
)
from .certify import aggregate_votes, smoothed_predict
from .errors import DimensionError, FormatError, InputError, NonFiniteError, ParameterError

__all__ = [
    "ViTConfig",
    "Model",
    "ablation_logits",
    "process_ablation",
    "masked_attention_oracle_forward",
    "per_ablation_predictions",
    "smoothed_vit_forward",
    "loss_and_gradients",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MAGIC = b"SVIT"
CHECKPOINT_VERSION = 1

# Token rows per stacked forward in per_ablation_predictions. Taller stacks
# raise peak memory; shorter ones pay more per-call overhead. Measured on 2
# CPUs with one BLAS thread and the stack pool (random-init ImageNet-like
# model, interleaved images), ms per image at 256/384/512/640/768 rows:
# column b=19 137.7/123.8/123.5/122.0/123.1, its s=10 set
# 18.7/18.4/17.9/20.3/20.4 (above 512 rows it is two stacks, of 580 and
# 129 rows). certbench's imagenet-column peak RSS read 123.8/126.7/129.0/
# 132.0/133.5 MB (medians of 5 runs), against 128.8 for the forward that
# kept every activation of a layer, at 256 rows. The stacks of one image
# are independent, and each writes only its own predictions.
ROW_BUDGET = 512
# per_ablation_predictions overlaps its stacks on a thread pool only where
# the stacks spend their time outside the GIL: where the weight MACs per
# Python-level attention call (6*(n+1)*d*d/heads for n cells, averaged
# over the set) reach this floor. Measured on 2 CPUs with one BLAS thread:
# ImageNet-like stacks (224x224, p=16, d=128, column b=19: 756k) ran
# 1.5-1.8x faster on two threads; CIFAR-like ones (32x32, p=4, d=64:
# block b=8 53k, column b=4 92k) ran no faster, because the per-(set,
# head) attention loop holds the GIL. Probe sets between 190k and 620k
# went either way.
POOL_MACS_PER_CALL = 300_000


def _layer_table(d: int) -> dict:
    """One encoder layer's parameters: short name -> (shape, initial value).

    An initial value of None draws N(0, 0.02); the order is the
    checkpoint order, and the order Model.init draws in.
    """
    return {
        "ln1.gamma": ((d,), 1.0), "ln1.beta": ((d,), 0.0),
        "attn.wq": ((d, d), None), "attn.bq": ((d,), 0.0),
        "attn.wk": ((d, d), None), "attn.bk": ((d,), 0.0),
        "attn.wv": ((d, d), None), "attn.bv": ((d,), 0.0),
        "attn.wo": ((d, d), None), "attn.bo": ((d,), 0.0),
        "ln2.gamma": ((d,), 1.0), "ln2.beta": ((d,), 0.0),
        "mlp.w1": ((d, 4 * d), None), "mlp.b1": ((4 * d,), 0.0),
        "mlp.w2": ((4 * d, d), None), "mlp.b2": ((d,), 0.0),
    }


@dataclass(frozen=True)
class ViTConfig:
    h: int
    w: int
    c: int
    p: int
    d: int
    heads: int
    layers: int
    k: int
    # not a field: the class token is the only readout. Checkpoint
    # headers still carry the key, and from_dict accepts only true.
    use_class_token = True

    def __post_init__(self):
        if not all(type(v) is int for v in vars(self).values()):  # not a bool, not a float
            raise ParameterError(f"config dimensions must be integers, got {vars(self)}")
        if min(self.h, self.w, self.c, self.p, self.d, self.heads, self.layers) < 1:
            raise ParameterError("all config dimensions must be positive")
        if self.c not in (1, 3):
            raise ParameterError(f"channels must be 1 or 3, got {self.c}")
        if self.h % self.p or self.w % self.p:
            raise ParameterError(f"patch size {self.p} must divide {self.h}x{self.w}")
        if self.d % self.heads:
            raise ParameterError(f"embedding dim {self.d} not divisible by {self.heads} heads")
        if self.k < 2:
            raise ParameterError(f"need at least 2 classes, got {self.k}")

    @property
    def grid_h(self) -> int:
        return self.h // self.p

    @property
    def grid_w(self) -> int:
        return self.w // self.p

    @property
    def grid_tokens(self) -> int:
        return self.grid_h * self.grid_w

    @property
    def head_dim(self) -> int:
        return self.d // self.heads

    def to_dict(self) -> dict:
        return {**asdict(self), "use_class_token": self.use_class_token}

    @classmethod
    def from_dict(cls, d: dict) -> "ViTConfig":
        d = dict(d)
        if d.pop("use_class_token", None) is not True:
            raise ValueError("use_class_token must be true: the class token is the only readout")
        return cls(**d)


def _param_table(cfg: ViTConfig) -> dict:
    """Every parameter: name -> (shape, initial value), as in _layer_table."""
    d = cfg.d
    table = {
        "patch_embed.weight": ((cfg.p * cfg.p * cfg.c, d), None),
        "patch_embed.bias": ((d,), 0.0),
        "pos_embed": ((cfg.grid_tokens, d), None),
        "cls_token": ((d,), None),
        "cls_pos": ((d,), None),
    }
    for i in range(cfg.layers):
        table.update({f"layers.{i}.{n}": entry for n, entry in _layer_table(d).items()})
    table["final_ln.gamma"] = ((d,), 1.0)
    table["final_ln.beta"] = ((d,), 0.0)
    table["head.weight"] = ((d, cfg.k), None)
    table["head.bias"] = ((cfg.k,), 0.0)
    return table


@dataclass
class Model:
    """A config plus its parameter dict; immutable during inference."""

    cfg: ViTConfig
    params: dict

    @classmethod
    def init(cls, cfg: ViTConfig, seed: int = 0) -> "Model":
        """Fresh float32 parameters: N(0, 0.02) weights, unit layer norms."""
        rng = np.random.default_rng(seed)
        params = {
            name: (rng.normal(0.0, 0.02, size=shape).astype(np.float32) if fill is None
                   else np.full(shape, fill, dtype=np.float32))
            for name, (shape, fill) in _param_table(cfg).items()
        }
        return cls(cfg=cfg, params=params)

    def copy(self) -> "Model":
        return Model(cfg=self.cfg, params={k: v.copy() for k, v in self.params.items()})


def _patch_matrix(pixels: np.ndarray, cfg: ViTConfig) -> np.ndarray:
    """Grid patches, row-major, of one image or a stack of them: (images*grid_tokens, p*p*c)."""
    gh, gw, p, c = cfg.grid_h, cfg.grid_w, cfg.p, cfg.c
    blocks = pixels.reshape(-1, gh, p, gw, p, c).transpose(0, 1, 3, 2, 4, 5)
    return np.ascontiguousarray(blocks.reshape(-1, p * p * c))


def _surviving_cells(z_m: AblatedImage, cfg: ViTConfig) -> np.ndarray:
    """Boolean (grid_tokens,): the cells of one ablation whose p*p block keeps a pixel."""
    if z_m.pixels.shape != (cfg.h, cfg.w, cfg.c):
        raise DimensionError(f"ablated image shape {z_m.pixels.shape} does not match config "
                             f"({cfg.h}, {cfg.w}, {cfg.c})")
    if z_m.mask.shape != (cfg.h, cfg.w):
        raise DimensionError(f"mask shape {z_m.mask.shape} != ({cfg.h}, {cfg.w})")
    alive = z_m.mask.reshape(cfg.grid_h, cfg.p, cfg.grid_w, cfg.p).any(axis=(1, 3)).ravel()
    if not alive.any():
        raise InputError("ablation masks every token; nothing to classify")
    return alive


def _layer_views(params: dict, cfg: ViTConfig) -> list[dict]:
    """Each layer's parameters keyed by short name; the values are the arrays themselves."""
    names = _layer_table(cfg.d)
    return [{n: params[f"layers.{i}.{n}"] for n in names} for i in range(cfg.layers)]


def _encoder_core(cells, grid_idx, params, cfg, record=False):
    """Logits (B, k) of the encoder over B sets of cells (B, n, p*p*c) at grid cells (B, n).

    Each set is a stack of n+1 token rows: the class token in row 0, then
    the projected cells plus their positional embeddings. Weight products
    run once over all rows; attention runs per set and head, one BLAS
    call each: _per_head's 2-D nx.matmul calls in inference, one
    matmul_stacked over the (B, heads) stack in record mode. The readout
    is the class token, so the last layer computes only that row past its
    keys and values: LN1 and the K/V projections run over all rows,
    because the class token attends to every key, while Q, the scores
    (B, heads, 1, n+1), the weighted sum, the out-projection, the
    residual, LN2, the MLP and the final layer norm run on the B class
    rows. record (training) keeps every row, projects the cells and
    computes the head per set (_weight_product), so a set's values are
    bitwise those of a batch of one for every n, n = 1 included, and also
    returns the activations the backward pass needs.

    Inference keeps only what a later op reads: no layer-norm ctx, and
    each activation (the projected cells, h1, K, k_t, Q, V, the scores,
    attn, o, the residual input, h2 and the MLP hidden) is dropped after
    its last reader. The layer norms' affine runs in their normalized
    buffer and the GELU tail in its input's, with the bits record mode
    computes. The MLP then peaks at nine (B*(n+1), d) buffers: its input,
    the hidden and GELU's scratch.
    """
    bsz, n, d = len(grid_idx), grid_idx.shape[1] + 1, cfg.d  # n token rows per set
    t = nx.bias_add(
        _weight_product(cells, params["patch_embed.weight"], record), params["patch_embed.bias"])
    x = np.empty((bsz, n, d), dtype=t.dtype)
    x[:, 0] = params["cls_token"] + params["cls_pos"]
    np.add(t, params["pos_embed"][grid_idx], out=x[:, 1:])
    del t
    product = nx.matmul_stacked if record else _per_head
    scale = 1.0 / math.sqrt(cfg.head_dim)  # python float: keeps float32 inputs float32
    ctx = {"layers": [], "n": n} if record else None
    x = x.reshape(bsz * n, d)

    for i, lp in enumerate(_layer_views(params, cfg)):
        h1, ln1 = nx.layer_norm_fwd(x, lp["ln1.gamma"], lp["ln1.beta"], record)
        kk = nx.bias_add(nx.matmul(h1, lp["attn.wk"]), lp["attn.bk"])
        v = nx.bias_add(nx.matmul(h1, lp["attn.wv"]), lp["attn.bv"])
        if not record and i == cfg.layers - 1:  # only the class rows are read out
            h1, x = (t.reshape(bsz, n, d)[:, 0] for t in (h1, x))
        q = nx.bias_add(nx.matmul(h1, lp["attn.wq"]), lp["attn.bq"])
        # (B, heads, dh, n): [b, hd] is head hd's keys of set b, transposed
        k_t = np.ascontiguousarray(_by_head(kk, bsz, cfg).swapaxes(2, 3))
        # record mode keeps the activations in lc; the dels free them in inference
        if record:
            lc = {"ln1": ln1, "h1": h1, "q": q, "k": kk, "v": v}
            ctx["layers"].append(lc)
        del ln1, h1, kk
        # inference stays _per_head, one 2-D nx.matmul per (set, head): certbench
        # stages forward MACs from those calls (ROADMAP item 1a). _by_head gives
        # (B, heads, rows, dh) views; q has n rows per set, or 1 in the class-only layer
        scores = product(_by_head(q, bsz, cfg), k_t)
        del k_t
        scores *= scale
        attn = nx.softmax_last_dim(scores)
        del scores
        o = np.empty_like(q)
        del q
        _by_head(o, bsz, cfg)[...] = product(attn, _by_head(v, bsz, cfg))
        if record:
            lc.update(attn=attn, o=o)
        del attn, v
        x_mid = nx.bias_add(nx.matmul(o, lp["attn.wo"]), lp["attn.bo"])
        del o
        x_mid += x  # the residual, summed into the fresh branch output
        del x
        h2, ln2 = nx.layer_norm_fwd(x_mid, lp["ln2.gamma"], lp["ln2.beta"], record)
        m1 = nx.bias_add(nx.matmul(h2, lp["mlp.w1"]), lp["mlp.b1"])
        if record:
            lc.update(ln2=ln2, h2=h2, m1=m1)
        del ln2, h2
        act = nx.gelu(m1, overwrite=not record)
        if record:
            lc["act"] = act
        del m1
        x = nx.bias_add(nx.matmul(act, lp["mlp.w2"]), lp["mlp.b2"])
        del act
        x += x_mid
        del x_mid

    f, lnf_ctx = nx.layer_norm_fwd(x, params["final_ln.gamma"], params["final_ln.beta"], record)
    r = f.reshape(bsz, -1, d)[:, 0]
    logits = nx.bias_add(
        _weight_product(r[:, None], params["head.weight"], record)[:, 0], params["head.bias"])
    if record:
        ctx["final_ln"] = lnf_ctx
        ctx["f"] = f
        ctx["r"] = r
        ctx["scale"] = scale
        return logits, ctx
    return logits


def _by_head(t, bsz, cfg):
    """(B, heads, n, dh) view of a (B*n, d) array: [b, hd] is head hd's column slice of set b."""
    return t.reshape(bsz, -1, cfg.heads, cfg.head_dim).transpose(0, 2, 1, 3)


def _per_head(a, b):
    """a (B, heads, m, k) x b (B, heads, k, n) as one 2-D nx.matmul per (set, head)."""
    out = np.empty((*a.shape[:3], b.shape[3]), dtype=a.dtype)
    for s in range(a.shape[0]):
        for hd in range(a.shape[1]):
            out[s, hd] = nx.matmul(a[s, hd], b[s, hd])
    return out


def _weight_product(x, w, per_set):
    """x (B, rows, k) @ w: one 2-D product over all B*rows rows, or per set as a
    batch of one computes it (a one-row product is a matrix-vector call, which
    rounds differently from the rows of a stacked product)."""
    if per_set:
        return nx.matmul_stacked(x, w)
    return nx.matmul(x.reshape(-1, x.shape[-1]), w).reshape(len(x), -1, w.shape[1])


def ablation_logits(z_m: AblatedImage, params: dict, cfg: ViTConfig) -> np.ndarray:
    """Reduced-token logits of one ablation, for certbench's logit gate and the tests."""
    grid_idx = np.nonzero(_surviving_cells(z_m, cfg))[0]
    patches = _patch_matrix(z_m.pixels, cfg)[grid_idx]
    return _encoder_core(patches[None], grid_idx[None], params, cfg)[0]


def process_ablation(patches: np.ndarray, grid_idx: np.ndarray, params: dict, cfg: ViTConfig):
    """Classes of a stack of B ablations with n surviving cells each.

    patches (B, n, p*p*c) are the ablated pixels of the cells at grid
    indices grid_idx (B, n); returns B argmax classes. A forward that
    raises FloatingPointError (per_ablation_predictions' errstate) or
    gives a logit that is not finite, which argmax would read as class
    0, raises NonFiniteError.
    """
    stack = f"the forward of a stack of {len(patches)} ablations of {grid_idx.shape[1]} cells each"
    try:
        logits = _encoder_core(patches, grid_idx, params, cfg)
    except FloatingPointError as exc:
        raise NonFiniteError(f"{stack} failed: {exc}") from exc
    if not np.isfinite(logits).all():
        raise NonFiniteError(f"{stack} gave non-finite logits")
    return np.argmax(logits, axis=1)


def masked_attention_oracle_forward(z_m: AblatedImage, params: dict, cfg: ViTConfig) -> np.ndarray:
    """Float64 reference logits (k,) of one ablation: the full grid, dropped cells blocked as keys.

    Every grid cell is a token, and no token attends to a cell whose p*p
    block keeps no pixel, which is mathematically the reduced-token
    forward. Every row is computed, one head at a time, with out-of-place
    numpy ops and the layer norm and tanh GELU written out: nothing but
    the parameter layout is shared with _encoder_core.
    """
    keys = np.concatenate([[True], _surviving_cells(z_m, cfg)])  # the class token, then the grid
    p64 = {name: np.asarray(params[name], dtype=np.float64) for name in _param_table(cfg)}

    def norm(x, gamma, beta):
        xc = x - x.mean(axis=-1, keepdims=True)
        return xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + nx._LN_EPS) * gamma + beta

    tokens = (_patch_matrix(z_m.pixels.astype(np.float64), cfg) @ p64["patch_embed.weight"]
              + p64["patch_embed.bias"] + p64["pos_embed"])
    x = np.vstack([p64["cls_token"] + p64["cls_pos"], tokens])
    dh = cfg.head_dim
    for lp in _layer_views(p64, cfg):
        h = norm(x, lp["ln1.gamma"], lp["ln1.beta"])
        q, k, v = (h @ lp[f"attn.w{t}"] + lp[f"attn.b{t}"] for t in "qkv")
        heads = []
        for cols in (slice(i * dh, (i + 1) * dh) for i in range(cfg.heads)):
            scores = np.where(keys, q[:, cols] @ k[:, cols].T / math.sqrt(dh), -np.inf)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            heads.append(e / e.sum(axis=-1, keepdims=True) @ v[:, cols])
        x = x + (np.hstack(heads) @ lp["attn.wo"] + lp["attn.bo"])
        u = norm(x, lp["ln2.gamma"], lp["ln2.beta"]) @ lp["mlp.w1"] + lp["mlp.b1"]
        act = 0.5 * u * (1.0 + np.tanh(nx._GELU_C * (u + nx._GELU_A * u ** 3)))
        x = x + (act @ lp["mlp.w2"] + lp["mlp.b2"])
    r = norm(x[0], p64["final_ln.gamma"], p64["final_ln.beta"])
    return r @ p64["head.weight"] + p64["head.bias"]


@dataclass(frozen=True)
class _Stack:
    """B ablations of n cells each: a stacked forward, or a training group of them."""

    ids: np.ndarray  # (B,) anchor indices
    grid_idx: np.ndarray  # (B, n) grid cells the ablations keep
    row_key: np.ndarray | None  # (B, n) rows of _StackPlan.row_masks; None keeps every row
    col_key: np.ndarray  # (B, n) rows of _StackPlan.col_masks


@dataclass(frozen=True)
class _StackPlan:
    """The image-independent half of per_ablation_predictions and loss_and_gradients."""

    counts: np.ndarray  # (size,) cells each ablation keeps, in anchor order
    alive: np.ndarray  # (size, grid_tokens) the cells each ablation keeps
    q_cols: int  # column intervals: ablation j keeps row interval j // q_cols, column j % q_cols
    stacks: tuple  # of _Stack, grouped by token count, then in anchor order
    row_masks: np.ndarray  # (q_rows*grid_h, p) 0/1: the pixel rows a row interval keeps of a cell row
    col_masks: np.ndarray  # (q_cols*grid_w, p*c) 0/1: the same for pixel columns, at pixel-row width
    macs_per_call: float  # weight MACs per Python-level attention call, over the set


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _stack(ids: np.ndarray, alive: np.ndarray, q_cols: int, column: bool, cfg: ViTConfig) -> _Stack:
    """The stack of ablations ids (repeats allowed), which keep equally many cells."""
    grid_idx = np.nonzero(alive[ids])[1].reshape(ids.size, -1)
    # a column set keeps every pixel row, and x*1 is x bitwise
    row_key = None if column else (ids[:, None] // q_cols) * cfg.grid_h + grid_idx // cfg.grid_w
    col_key = (ids[:, None] % q_cols) * cfg.grid_w + grid_idx % cfg.grid_w
    return _Stack(*(a if a is None else _read_only(a) for a in (ids, grid_idx, row_key, col_key)))


@functools.lru_cache(maxsize=4)
def _stack_plan(cfg: ViTConfig, spec: AblationSpec, budget: int) -> _StackPlan:
    """Every stack of the set, at most budget rows each, with its cells and mask rows.

    Ablation j keeps row interval j // q_cols and column interval
    j % q_cols of ``retained_axes``, which give its surviving cells and
    their pixel masks. Ablations with equal token counts share stacks,
    in anchor order.
    """
    rows, cols = retained_axes(cfg.h, cfg.w, spec)
    p, gh, gw, q_cols = cfg.p, cfg.grid_h, cfg.grid_w, cols.shape[0]
    row_cells = rows.reshape(-1, gh, p)  # retained pixel rows of each cell row
    col_cells = cols.reshape(q_cols, gw, p)
    row_alive, col_alive = row_cells.any(axis=2), col_cells.any(axis=2)
    alive = (row_alive[:, None, :, None] & col_alive[None, :, None, :]).reshape(-1, cfg.grid_tokens)
    counts = alive.sum(axis=1)
    stacks = []
    for n in np.unique(counts).tolist():
        members = np.nonzero(counts == n)[0]
        most = max(1, budget // (n + 1))  # n cells plus the class token
        # the fewest stacks under the budget, in sizes that differ by at most
        # one, so that no short tail stack idles a pool worker
        for ids in np.array_split(members, -(-members.size // most)):
            stacks.append(_stack(ids, alive, q_cols, spec.kind == "column", cfg))
    row_masks = row_cells.reshape(-1, p).astype(np.float32)
    col_masks = np.repeat(col_cells.reshape(-1, p), cfg.c, axis=1).astype(np.float32)
    # per set and layer: 12*(n+1)*d*d weight MACs (QKV, out-projection, MLP)
    # against 2*heads Python-level attention products
    macs_per_call = 6 * float(counts.mean() + 1) * cfg.d * cfg.d / cfg.heads
    return _StackPlan(_read_only(counts), _read_only(alive), q_cols, tuple(stacks),
                      _read_only(row_masks), _read_only(col_masks), macs_per_call)


def _ablated_cells(patches: np.ndarray, at: np.ndarray, stack: _Stack, plan: _StackPlan):
    """The ablated pixels (B, n, p*p*c) of stack's cells, rows at (B, n) of patches (N, p, p*c);
    0/1 masks in the pixels' dtype make (x*r)*c bitwise x*(r and c), negative zeros included."""
    cells = patches[at]
    if stack.row_key is not None:
        cells *= plan.row_masks[stack.row_key].astype(cells.dtype, copy=False)[..., None]
    cells *= plan.col_masks[stack.col_key].astype(cells.dtype, copy=False)[:, :, None]
    return cells.reshape(*at.shape, -1)


@functools.cache
def _pool_workers() -> int:
    """The CPUs this process may run on over the threads OpenBLAS starts (at least 1).

    OpenBLAS takes its thread count from the first of these variables
    that is set to a positive count, else it starts one thread per CPU.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return max(1, cpus // int(value))
    return 1


@functools.cache
def _executor(pid: int, workers: int) -> ThreadPoolExecutor:
    """The stack pool of process pid: created on first use, its threads started on first submit."""
    return ThreadPoolExecutor(workers, thread_name_prefix="patchcert-stack")


def _stack_pool(plan: _StackPlan) -> ThreadPoolExecutor | None:
    """The pool that runs plan's stacks, or None to run them on the calling thread."""
    workers = _pool_workers()
    if workers < 2 or plan.macs_per_call < POOL_MACS_PER_CALL:
        return None
    return _executor(os.getpid(), workers)  # a forked child builds its own


def _run_each(job, items, pool):
    """[job(item) for item in items], on pool's threads when there is one.

    Each job runs in a copy of the caller's context, so count_macs sees
    its products. Every job has ended when this returns or raises; an
    exception comes out as the job raised it.
    """
    if pool is None:
        return [job(item) for item in items]
    futures = [pool.submit(contextvars.copy_context().run, job, item) for item in items]
    try:
        return [f.result() for f in futures]
    finally:
        for f in futures:
            f.cancel()
        wait(futures)


# an overflow, or an invalid operation, in the forward raises rather than
# warns (process_ablation reports it); numpy 2's errstate is a contextvar,
# so the stack pool's jobs inherit it
@np.errstate(over="raise", invalid="raise", divide="raise")
def per_ablation_predictions(x: np.ndarray, spec: AblationSpec, params: dict, cfg: ViTConfig):
    """Base-classifier predictions for every ablation in the set: an int64 array in anchor order.

    The image is patchified once, and the stacks of the cached
    ``_stack_plan`` gather their cells from it and mask them. Where the
    stacks are large enough (POOL_MACS_PER_CALL) and BLAS leaves CPUs
    free, the stacks overlap on a thread pool. Every stack computes
    exactly what the serial loop computes, so the predictions are
    bitwise the same either way.
    """
    x = validate_image(x)
    if x.shape != (cfg.h, cfg.w, cfg.c):
        raise DimensionError(f"image shape {x.shape} does not match config ({cfg.h}, {cfg.w}, {cfg.c})")
    plan = _stack_plan(cfg, spec, ROW_BUDGET)
    patches = _patch_matrix(x, cfg).reshape(cfg.grid_tokens, cfg.p, cfg.p * cfg.c)

    def classify(stack: _Stack) -> np.ndarray:
        cells = _ablated_cells(patches, stack.grid_idx, stack, plan)
        return process_ablation(cells, stack.grid_idx, params, cfg)

    preds = np.empty(plan.counts.size, dtype=np.int64)
    for stack, classes in zip(plan.stacks, _run_each(classify, plan.stacks, _stack_pool(plan))):
        preds[stack.ids] = classes
    return preds


def smoothed_vit_forward(x, spec: AblationSpec, params: dict, cfg: ViTConfig):
    """Smoothed prediction and its (k,) int64 vote counts over the full ablation set."""
    votes = aggregate_votes(per_ablation_predictions(x, spec, params, cfg), cfg.k)
    return smoothed_predict(votes), votes


def loss_and_gradients(images, spec: AblationSpec, anchors, labels, params: dict, cfg: ViTConfig):
    """Summed cross-entropy loss of a batch of ablations and its summed exact gradients.

    Sample i is ablation anchors[i] (an index into spec's set, in anchor
    order) of images[i], cut from the cached ``_stack_plan`` as in
    per_ablation_predictions. Returns (loss_sum, grads) where grads holds
    one fresh array per parameter, in parameter order; pos_embed rows of
    dropped tokens receive zero gradient. Both sums run in batch order
    from +0, over per-ablation values that are bitwise those of a batch of one.
    Ablations with equal token counts share one recorded forward, one
    nx.cross_entropy call and one backward, whose every product runs per
    ablation (the recorded attention too, stacked over sets and heads).
    The groups' backwards step in lockstep, so only one parameter's
    per-ablation gradients are alive at a time, and each parameter's
    batch sum adds those rows in place into one zero-filled array.
    """
    images, anchors, labels = np.asarray(images), np.asarray(anchors), np.asarray(labels)
    if not len(images) == len(anchors) == len(labels) > 0:
        raise ParameterError("need equally many images, anchors and labels, at least one each")
    if images.shape[1:] != (cfg.h, cfg.w, cfg.c):
        raise DimensionError(f"images {images.shape} do not match config {cfg.h, cfg.w, cfg.c}")
    plan = _stack_plan(cfg, spec, ROW_BUDGET)
    if not 0 <= anchors.min() <= anchors.max() < plan.counts.size:
        raise ParameterError(f"anchors outside [0, {plan.counts.size})")
    patches = _patch_matrix(images, cfg).reshape(-1, cfg.p, cfg.p * cfg.c)  # image after image
    by_count: dict[int, list[int]] = {}
    for i, n in enumerate(plan.counts[anchors].tolist()):
        by_count.setdefault(n, []).append(i)
    groups = list(by_count.values())
    losses = np.empty(len(images))  # float64 holds each float32 loss exactly
    streams = []
    for ids in groups:
        stack = _stack(anchors[ids], plan.alive, plan.q_cols, spec.kind == "column", cfg)
        at = np.array(ids)[:, None] * cfg.grid_tokens + stack.grid_idx  # sample i's cells
        cells = _ablated_cells(patches, at, stack, plan)
        logits, ctx = _encoder_core(cells, stack.grid_idx, params, cfg, record=True)
        losses[ids], dlogits = nx.cross_entropy(logits, labels[ids])
        streams.append(_set_gradients(cells, stack.grid_idx, dlogits, ctx, params, cfg))
    loss_sum = 0.0  # Python floats in batch order: sum() compensates from 3.12, np.sum pairs
    for loss in losses.tolist():
        loss_sum += loss
    # per-ablation gradients in batch order, summed in place from +0: 0 + g_0 + g_1 + ...
    slots = sorted((i, g, row) for g, ids in enumerate(groups) for row, i in enumerate(ids))
    grads = {}
    for parts in zip(*streams):
        name, first = parts[0]
        total = np.zeros(first.shape[1:], dtype=first.dtype)
        for _, g, row in slots:
            total += parts[g][1][row]
        grads[name] = total
    return loss_sum, {k: grads[k] for k in params}


def _set_gradients(patches, grid_idx, dlogits, ctx, params, cfg):
    """Per-set gradients of one recorded stack, yielded as (name, (B, ...) stack).

    patches (B, n, p*p*c) and grid_idx (B, n) are the stack's cells,
    dlogits (B, k) its loss gradients. Every product runs once per set
    (matmul_stacked; an input gradient takes the weight's transpose as
    the shared 2-D operand), and every sum over rows runs per set, so
    each set's gradient is bitwise that of a batch of one.
    """
    bsz, n = dlogits.shape[0], ctx["n"]
    scale = ctx["scale"]

    def sets(t):
        """(B, n, width) view of a (B*n, width) activation."""
        return t.reshape(bsz, n, -1)

    def weight_grad(t, dy):
        """t_b.T @ dy_b for every set b."""
        return nx.matmul_stacked(sets(t).swapaxes(1, 2), dy)

    yield "head.weight", nx.matmul_stacked(ctx["r"][:, :, None], dlogits[:, None, :])
    yield "head.bias", dlogits
    dr = nx.matmul_stacked(dlogits[:, None, :], params["head.weight"].T)
    df = np.zeros_like(sets(ctx["f"]))
    df[:, 0] = dr[:, 0]
    dx, dgamma, dbeta = nx.layer_norm_bwd(ctx["final_ln"], df)
    yield "final_ln.gamma", dgamma
    yield "final_ln.beta", dbeta

    layers = _layer_views(params, cfg)
    for i in reversed(range(cfg.layers)):
        lc, lp, pre = ctx["layers"][i], layers[i], f"layers.{i}."

        # MLP residual: x_out = x_mid + W2(gelu(W1 ln2(x_mid)))
        yield pre + "mlp.w2", weight_grad(lc["act"], dx)
        yield pre + "mlp.b2", dx.sum(axis=1)
        dm1 = nx.gelu_backward(sets(lc["m1"]), nx.matmul_stacked(dx, lp["mlp.w2"].T))
        yield pre + "mlp.w1", weight_grad(lc["h2"], dm1)
        yield pre + "mlp.b1", dm1.sum(axis=1)
        dh2 = nx.matmul_stacked(dm1, lp["mlp.w1"].T)
        dx_mid, dgamma, dbeta = nx.layer_norm_bwd(lc["ln2"], dh2)
        yield pre + "ln2.gamma", dgamma
        yield pre + "ln2.beta", dbeta
        dx = dx + dx_mid

        # attention residual: x_mid = x_in + Wo(attn(ln1(x_in))), all heads at once
        yield pre + "attn.wo", weight_grad(lc["o"], dx)
        yield pre + "attn.bo", dx.sum(axis=1)
        do = _by_head(nx.matmul_stacked(dx, lp["attn.wo"].T), bsz, cfg)
        a = lc["attn"]
        q_h, k_h, v_h = (_by_head(lc[t], bsz, cfg) for t in ("q", "k", "v"))
        da = nx.matmul_stacked(do, np.ascontiguousarray(v_h.swapaxes(2, 3)))
        ds = nx.softmax_backward(a, da)
        dq, dk, dv = (np.empty_like(sets(lc[t])) for t in ("q", "k", "v"))
        _by_head(dv, bsz, cfg)[...] = nx.matmul_stacked(a.swapaxes(2, 3), do)
        _by_head(dq, bsz, cfg)[...] = nx.matmul_stacked(ds, k_h) * scale
        _by_head(dk, bsz, cfg)[...] = nx.matmul_stacked(ds.swapaxes(2, 3), q_h) * scale
        for t, g in (("q", dq), ("k", dk), ("v", dv)):
            yield pre + "attn.w" + t, weight_grad(lc["h1"], g)
            yield pre + "attn.b" + t, g.sum(axis=1)
        dh1 = (nx.matmul_stacked(dq, lp["attn.wq"].T) + nx.matmul_stacked(dk, lp["attn.wk"].T)
               + nx.matmul_stacked(dv, lp["attn.wv"].T))
        dx_in, dgamma, dbeta = nx.layer_norm_bwd(lc["ln1"], dh1)
        yield pre + "ln1.gamma", dgamma
        yield pre + "ln1.beta", dbeta
        dx = dx + dx_in

    # token embeddings: the class token's row first, then the surviving grid rows
    yield "cls_token", dx[:, 0]
    yield "cls_pos", dx[:, 0]
    dgrid = dx[:, 1:]
    yield "patch_embed.weight", nx.matmul_stacked(patches.swapaxes(1, 2), dgrid)
    yield "patch_embed.bias", dgrid.sum(axis=1)
    pos = np.zeros((bsz, *params["pos_embed"].shape), dtype=dgrid.dtype)
    pos[np.arange(bsz)[:, None], grid_idx] = dgrid  # a set's cells are distinct
    yield "pos_embed", pos


def save_checkpoint(model: Model, path) -> None:
    """Write magic, version, JSON header, then raw little-endian float32."""
    names = list(_param_table(model.cfg))
    manifest = [{"name": n, "shape": list(model.params[n].shape)} for n in names]
    header = json.dumps(
        {"config": model.cfg.to_dict(), "manifest": manifest}, sort_keys=True
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for n in names:
            fh.write(np.ascontiguousarray(model.params[n], dtype="<f4").tobytes())


def load_checkpoint(path) -> Model:
    """Read and validate a checkpoint written by save_checkpoint."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {blob[:4]!r}")
    if len(blob) < 12:
        raise FormatError(f"checkpoint truncated at {len(blob)} bytes, inside its 12-byte preamble")
    version, hlen = struct.unpack_from("<II", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    try:
        header = json.loads(blob[12 : 12 + hlen].decode("utf-8"))
        cfg = ViTConfig.from_dict(header["config"])
        manifest = header["manifest"]
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"unreadable checkpoint header: {exc}") from exc
    shapes = {name: shape for name, (shape, _) in _param_table(cfg).items()}
    try:
        declared = [(e["name"], tuple(e["shape"])) for e in manifest]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"unreadable checkpoint manifest: {exc}") from exc
    if [name for name, _ in declared] != list(shapes):
        raise FormatError("checkpoint manifest does not match its config")
    for name, shape in declared:
        if shape != shapes[name]:
            raise FormatError(
                f"checkpoint tensor {name!r} has shape {list(shape)}, its config "
                f"needs {list(shapes[name])}")
    params = {}
    off = 12 + hlen
    for name, shape in shapes.items():
        end = off + 4 * math.prod(shape)
        if end > len(blob):
            raise FormatError(f"checkpoint truncated in tensor {name!r}")
        tensor = np.frombuffer(blob[off:end], dtype="<f4").reshape(shape).astype(np.float32)
        if not np.isfinite(tensor).all():
            raise FormatError(f"checkpoint tensor {name!r} holds a non-finite value")
        params[name] = tensor
        off = end
    if off != len(blob):
        raise FormatError(f"{len(blob) - off} trailing bytes after last tensor")
    return Model(cfg=cfg, params=params)
