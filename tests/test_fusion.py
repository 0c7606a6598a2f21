import dataclasses
import math

import numpy as np
import pytest

from sceneqa.errors import DimMismatch
from sceneqa.fusion import (
    FusionWeights,
    attention_map,
    build_unified_3d,
    cross_attention,
    fuse_forward,
    grad_check,
)

RNG = np.random.default_rng(0)


def desk_instance(seed=0, n_vis=6, dim_v=8, n_geo=5, dim_3d=7, d_k=6,
                  d_p1=9, d_p2=5, **kwargs):
    rng = np.random.default_rng(seed)
    w = FusionWeights.random(rng, dim_v=dim_v, dim_3d=dim_3d, d_k=d_k,
                             d_p1=d_p1, d_p2=d_p2, **kwargs)
    h_v = rng.normal(size=(n_vis, dim_v))
    f = rng.normal(size=(n_geo, dim_3d))
    z = rng.normal(size=(1, dim_3d))
    return w, h_v, f, z


def matmul_loops(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            s = 0.0
            for k in range(a.shape[1]):
                s += a[i, k] * b[k, j]
            out[i, j] = s
    return out


def naive_attention(h_v, z_3d, w):
    """Three-loop evaluation of the attention block, no vectorized ops."""
    q = matmul_loops(h_v, w.w_q)
    k = matmul_loops(z_3d, w.w_k)
    v = matmul_loops(z_3d, w.w_v)
    n, m = q.shape[0], k.shape[0]
    logits = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for d in range(q.shape[1]):
                s += q[i, d] * k[j, d]
            logits[i, j] = s / math.sqrt(w.key_dim)
    attn = np.zeros_like(logits)
    for i in range(n):
        mx = max(logits[i])
        exps = [math.exp(l - mx) for l in logits[i]]
        total = sum(exps)
        attn[i] = [e / total for e in exps]
    return matmul_loops(attn, v)


# --- concatenation ---------------------------------------------------------------

def test_concat_full_width_shapes():
    f = np.zeros((729, 768))
    z = np.zeros((1, 768))
    assert build_unified_3d(f, z).shape == (730, 768)


def test_concat_desk_shapes_and_order():
    f = RNG.normal(size=(9, 8))
    z = RNG.normal(size=(1, 8))
    out = build_unified_3d(f, z)
    assert out.shape == (10, 8)
    assert np.array_equal(out[:9], f)
    assert np.array_equal(out[9], z[0])  # view token is the last row


def test_concat_dim_mismatch():
    with pytest.raises(DimMismatch):
        build_unified_3d(np.zeros((9, 8)), np.zeros((1, 16)))
    with pytest.raises(DimMismatch):
        build_unified_3d(np.zeros((9, 8)), np.zeros((2, 8)))


# --- cross attention -----------------------------------------------------------------

def test_zero_value_projection_gives_zero_output():
    w, h_v, f, z = desk_instance(1)
    out = cross_attention(h_v, build_unified_3d(f, z), w.with_zero_values())
    assert np.array_equal(out, np.zeros_like(h_v))


def test_single_key_broadcasts_value_row():
    w, h_v, _, z = desk_instance(2)
    z_3d = z  # a single 3D token: softmax over one key is exactly 1
    out = cross_attention(h_v, z_3d, w)
    value_row = (z @ w.w_v)[0]
    for row in out:
        assert np.allclose(row, value_row, atol=1e-12)
    attn = attention_map(h_v, z_3d, w)
    assert np.allclose(attn, 1.0)


def test_cross_attention_matches_naive_loops():
    w, h_v, f, z = desk_instance(3)
    z_3d = build_unified_3d(f, z)
    fast = cross_attention(h_v, z_3d, w)
    slow = naive_attention(h_v, z_3d, w)
    assert np.max(np.abs(fast - slow)) < 1e-12


def test_attention_rows_sum_to_one():
    w, h_v, f, z = desk_instance(4)
    attn = attention_map(h_v, build_unified_3d(f, z), w)
    assert np.max(np.abs(attn.sum(axis=1) - 1.0)) < 1e-9
    assert np.all(attn >= 0)


def test_attention_shape_mismatch():
    w, h_v, f, z = desk_instance(5)
    with pytest.raises(DimMismatch):
        cross_attention(h_v[:, :4], build_unified_3d(f, z), w)


# --- fuse_forward ----------------------------------------------------------------------

def test_residual_identity_exact():
    w, h_v, f, z = desk_instance(6)
    w_id = w.with_zero_values().with_identity_projector()
    out = fuse_forward(h_v, f, z, w_id)
    assert np.array_equal(out, h_v)


def test_fuse_forward_matches_composed_oracle():
    w, h_v, f, z = desk_instance(7)
    z_3d = build_unified_3d(f, z)
    enriched = h_v + naive_attention(h_v, z_3d, w)
    pre = enriched @ w.w_p1 + w.b_p1
    act = pre / (1.0 + np.exp(-pre))
    want = act @ w.w_p2 + w.b_p2
    got = fuse_forward(h_v, f, z, w)
    assert np.max(np.abs(got - want)) < 1e-11


def test_full_width_smoke():
    rng = np.random.default_rng(8)
    w = FusionWeights.random(rng, dim_v=1152, dim_3d=768, d_k=64,
                             d_p1=3584, d_p2=3584, scale=0.02)
    out = fuse_forward(rng.normal(size=(729, 1152)),
                       rng.normal(size=(729, 768)),
                       rng.normal(size=(1, 768)), w)
    assert out.shape == (729, 3584)
    assert np.all(np.isfinite(out))


def test_permutation_equivariance_in_queries():
    w, h_v, f, z = desk_instance(9)
    perm = np.random.default_rng(10).permutation(len(h_v))
    out = fuse_forward(h_v, f, z, w)
    out_perm = fuse_forward(h_v[perm], f, z, w)
    assert np.allclose(out_perm, out[perm], atol=1e-12)


def test_logit_scale_keeps_shapes_and_finiteness():
    # scaling the attention inputs while widening d_k must not change shapes
    # or produce non-finite outputs (value-level claims are not asserted)
    for d_k, scale in ((4, 1.0), (16, 3.0), (64, 10.0)):
        rng = np.random.default_rng(20)
        w = FusionWeights.random(rng, dim_v=8, dim_3d=7, d_k=d_k, d_p1=9, d_p2=5)
        h_v = scale * rng.normal(size=(6, 8))
        f = scale * rng.normal(size=(5, 7))
        z = scale * rng.normal(size=(1, 7))
        out = fuse_forward(h_v, f, z, w)
        assert out.shape == (6, 5)
        assert np.all(np.isfinite(out))


def test_weight_shape_validation():
    rng = np.random.default_rng(11)
    w = FusionWeights.random(rng, dim_v=8, dim_3d=7, d_k=6)
    with pytest.raises(DimMismatch):
        dataclasses.replace(w, w_k=np.zeros((7, 5)))  # key dim mismatch
    with pytest.raises(DimMismatch):
        dataclasses.replace(w, w_v=np.zeros((7, 9)))  # wrong output width


# --- gradient checks ----------------------------------------------------------------------

def test_grad_check_linear_configuration_exact():
    w, h_v, f, z = desk_instance(12, use_softmax=False)
    err = grad_check(w.with_identity_projector(), h_v, f, z)
    assert err < 1e-9


def test_grad_check_full_chain():
    w, h_v, f, z = desk_instance(0)
    assert grad_check(w, h_v, f, z) < 1e-5


def test_grad_check_step_sweep_plateau():
    w, h_v, f, z = desk_instance(13, n_vis=4, dim_v=6, n_geo=3, dim_3d=5,
                                 d_k=4, d_p1=6, d_p2=4)
    errs = {step: grad_check(w, h_v, f, z, step=step)
            for step in (1e-3, 1e-4, 1e-5)}
    assert all(e < 1e-4 for e in errs.values())
    assert errs[1e-4] < 1e-5  # the sweet spot sits between truncation and roundoff

