"""Reference kernel for fusing per-frame geometry/view tokens with visual tokens.

One frame at a time: geometry tokens (n x d3) and a single camera-view token
(1 x d3) are stacked into a unified matrix, visual tokens query it through
single-head cross-attention, the attended values are residually added to the
visual tokens, and a two-layer projector maps the result to the target width.

Everything is plain float64 numpy. The analytic backward pass is verified
against central finite differences by grad_check; a linear configuration
(softmax bypassed, identity projector) exercises the exact-gradient path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimMismatch

DEFAULT_KEY_DIM = 64


def _check_matrix(m, name):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimMismatch(f"{name} must be a 2D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DimMismatch(f"{name} has non-finite entries")
    return m


@dataclass(frozen=True)
class FusionWeights:
    """Projection matrices for one fusion block.

    w_q: (dim_v, d_k), w_k: (dim_3d, d_k), w_v: (dim_3d, dim_v);
    projector w_p1: (dim_v, d_p1), b_p1: (d_p1,), w_p2: (d_p1, d_p2),
    b_p2: (d_p2,). ``activation`` is "silu" or "identity"; ``use_softmax``
    False turns the attention into a plain bilinear map (for exact-gradient
    verification).
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_p1: np.ndarray
    b_p1: np.ndarray
    w_p2: np.ndarray
    b_p2: np.ndarray
    activation: str = "silu"
    use_softmax: bool = True

    def __post_init__(self):
        for name in ("w_q", "w_k", "w_v", "w_p1", "w_p2"):
            object.__setattr__(self, name, _check_matrix(getattr(self, name), name))
        for name in ("b_p1", "b_p2"):
            b = np.asarray(getattr(self, name), dtype=float)
            if b.ndim != 1:
                raise DimMismatch(f"{name} must be a vector, got shape {b.shape}")
            object.__setattr__(self, name, b)
        if self.w_q.shape[1] != self.w_k.shape[1]:
            raise DimMismatch("w_q and w_k must share the key dimension")
        if self.w_k.shape[0] != self.w_v.shape[0]:
            raise DimMismatch("w_k and w_v must share the token dimension")
        if self.w_v.shape[1] != self.w_q.shape[0]:
            raise DimMismatch("w_v must map back to the visual dimension")
        if self.w_p1.shape[0] != self.w_q.shape[0]:
            raise DimMismatch("projector input must match the visual dimension")
        if self.w_p1.shape[1] != len(self.b_p1) or self.w_p2.shape[0] != len(self.b_p1):
            raise DimMismatch("projector hidden dimensions are inconsistent")
        if self.w_p2.shape[1] != len(self.b_p2):
            raise DimMismatch("projector output bias has the wrong length")
        if self.activation not in ("silu", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def key_dim(self) -> int:
        return self.w_q.shape[1]

    @classmethod
    def random(cls, rng: np.random.Generator, dim_v: int, dim_3d: int,
               d_k: int = DEFAULT_KEY_DIM, d_p1: int | None = None,
               d_p2: int | None = None, scale: float = 0.2, **kwargs) -> "FusionWeights":
        d_p1 = d_p1 or dim_v
        d_p2 = d_p2 or d_p1
        return cls(
            w_q=rng.normal(0.0, scale, (dim_v, d_k)),
            w_k=rng.normal(0.0, scale, (dim_3d, d_k)),
            w_v=rng.normal(0.0, scale, (dim_3d, dim_v)),
            w_p1=rng.normal(0.0, scale, (dim_v, d_p1)),
            b_p1=rng.normal(0.0, scale, d_p1),
            w_p2=rng.normal(0.0, scale, (d_p1, d_p2)),
            b_p2=rng.normal(0.0, scale, d_p2),
            **kwargs,
        )

    def with_zero_values(self) -> "FusionWeights":
        return replace(self, w_v=np.zeros_like(self.w_v))

    def with_identity_projector(self) -> "FusionWeights":
        dim_v = self.w_q.shape[0]
        return replace(self, w_p1=np.eye(dim_v), b_p1=np.zeros(dim_v),
                       w_p2=np.eye(dim_v), b_p2=np.zeros(dim_v),
                       activation="identity")


def build_unified_3d(geometry_tokens, view_token) -> np.ndarray:
    """Stack geometry tokens and the single view token row-wise (view last)."""
    f = _check_matrix(geometry_tokens, "geometry_tokens")
    z = _check_matrix(view_token, "view_token")
    if z.shape[0] != 1:
        raise DimMismatch(f"view token must be a single row, got {z.shape[0]}")
    if f.shape[1] != z.shape[1]:
        raise DimMismatch(f"column mismatch: {f.shape[1]} vs {z.shape[1]}")
    return np.concatenate([f, z], axis=0)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def attention_map(h_v, z_3d, w: FusionWeights) -> np.ndarray:
    """Row-stochastic attention weights (queries = visual tokens)."""
    h_v = _check_matrix(h_v, "h_v")
    z_3d = _check_matrix(z_3d, "z_3d")
    if h_v.shape[1] != w.w_q.shape[0]:
        raise DimMismatch("visual tokens do not match w_q")
    if z_3d.shape[1] != w.w_k.shape[0]:
        raise DimMismatch("3D tokens do not match w_k")
    logits = (h_v @ w.w_q) @ (z_3d @ w.w_k).T / np.sqrt(w.key_dim)
    return _softmax_rows(logits) if w.use_softmax else logits


def cross_attention(h_v, z_3d, w: FusionWeights) -> np.ndarray:
    """Attend visual tokens over the unified 3D tokens; output matches h_v's shape."""
    attn = attention_map(h_v, z_3d, w)
    return attn @ (np.asarray(z_3d, dtype=float) @ w.w_v)


def _silu(x):
    return x / (1.0 + np.exp(-x))


def _silu_grad(x):
    sig = 1.0 / (1.0 + np.exp(-x))
    return sig * (1.0 + x * (1.0 - sig))


def fuse_forward(h_v, geometry_tokens, view_token, w: FusionWeights) -> np.ndarray:
    """Full block: attention, residual add, two-layer projector."""
    h_v = _check_matrix(h_v, "h_v")
    z_3d = build_unified_3d(geometry_tokens, view_token)
    enriched = h_v + cross_attention(h_v, z_3d, w)
    hidden = enriched @ w.w_p1 + w.b_p1
    if w.activation == "silu":
        hidden = _silu(hidden)
    return hidden @ w.w_p2 + w.b_p2


def _forward_and_grads(h_v, z_3d, w: FusionWeights):
    """Loss = sum of outputs, with analytic gradients for every weight."""
    scale = 1.0 / np.sqrt(w.key_dim)
    q = h_v @ w.w_q
    k = z_3d @ w.w_k
    v = z_3d @ w.w_v
    logits = q @ k.T * scale
    attn = _softmax_rows(logits) if w.use_softmax else logits
    enriched = h_v + attn @ v
    pre = enriched @ w.w_p1 + w.b_p1
    act = _silu(pre) if w.activation == "silu" else pre
    out = act @ w.w_p2 + w.b_p2
    loss = float(out.sum())

    d_out = np.ones_like(out)
    g_w_p2 = act.T @ d_out
    g_b_p2 = d_out.sum(axis=0)
    d_act = d_out @ w.w_p2.T
    d_pre = d_act * _silu_grad(pre) if w.activation == "silu" else d_act
    g_w_p1 = enriched.T @ d_pre
    g_b_p1 = d_pre.sum(axis=0)
    d_enriched = d_pre @ w.w_p1.T

    d_attn = d_enriched @ v.T
    g_w_v = z_3d.T @ (attn.T @ d_enriched)
    if w.use_softmax:
        # softmax rows: dL = A * (dA - sum(dA * A))
        d_logits = attn * (d_attn - (d_attn * attn).sum(axis=1, keepdims=True))
    else:
        d_logits = d_attn
    g_w_q = h_v.T @ (d_logits @ k * scale)
    g_w_k = z_3d.T @ (d_logits.T @ q * scale)

    grads = {"w_q": g_w_q, "w_k": g_w_k, "w_v": g_w_v,
             "w_p1": g_w_p1, "b_p1": g_b_p1, "w_p2": g_w_p2, "b_p2": g_b_p2}
    return loss, grads


def _loss_only(h_v, geometry_tokens, view_token, w: FusionWeights) -> float:
    return float(fuse_forward(h_v, geometry_tokens, view_token, w).sum())


def grad_check(w: FusionWeights, h_v, geometry_tokens, view_token,
               step: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error per entry is |analytic - numeric| / max(1, |analytic|,
    |numeric|), so near-zero gradients are compared absolutely. Intended for
    desk-scale shapes (tens of tokens and dimensions).
    """
    h_v = _check_matrix(h_v, "h_v")
    z_3d = build_unified_3d(geometry_tokens, view_token)
    _, grads = _forward_and_grads(h_v, z_3d, w)

    worst = 0.0
    for name, grad in grads.items():
        base = np.asarray(getattr(w, name), dtype=float)
        numeric = np.zeros_like(base)
        flat = base.reshape(-1)
        num_flat = numeric.reshape(-1)
        for idx in range(flat.size):
            for sign in (+1.0, -1.0):
                bumped = flat.copy()
                bumped[idx] += sign * step
                w_bumped = replace(w, **{name: bumped.reshape(base.shape)})
                num_flat[idx] += sign * _loss_only(h_v, geometry_tokens, view_token, w_bumped)
            num_flat[idx] /= 2.0 * step
        err = np.abs(grad - numeric) / np.maximum(1.0, np.maximum(np.abs(grad), np.abs(numeric)))
        worst = max(worst, float(err.max()))
    return worst

