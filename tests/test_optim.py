from dataclasses import fields

import numpy as np
import pytest

from fedskew import numkit as nk
from fedskew.numkit import FlatParams, OptimizerCfg, adamw_step, sgd_step


def t(x):
    return nk.Tensor(np.asarray(x, dtype=np.float64))


def stepped(step_fn, cfg, params: dict, grads: dict) -> dict:
    """One `step_fn` under `cfg` on fresh {name: Tensor} params, with the {name: array}
    gradients written into `grads`; returns the updated tensors."""
    flat = FlatParams(params, cfg)
    for name, g in grads.items():
        flat.grads[name][...] = g
    step_fn(flat, flat.grad)
    return flat.tensors


def test_sgd_single_step():
    flat = FlatParams({"p": t([1.0])}, OptimizerCfg("sgd", lr=0.01))
    flat.grads["p"][...] = 0.5
    sgd_step(flat, flat.grad)
    assert flat.tensors["p"].data[0] == pytest.approx(0.995)
    assert flat.step_count == 1


def test_sgd_zero_gradient_noop():
    cfg = OptimizerCfg("sgd", lr=0.1)
    out = stepped(sgd_step, cfg, {"p": t([2.0, 3.0])}, {"p": np.zeros(2)})
    np.testing.assert_array_equal(out["p"].data, [2.0, 3.0])


def test_sgd_linearity_for_constant_gradient():
    cfg = OptimizerCfg("sgd", lr=0.1)
    p = {"p": t([1.0])}
    g = {"p": np.array([0.3])}
    twice = stepped(sgd_step, cfg, stepped(sgd_step, cfg, p, g), g)
    once = stepped(sgd_step, OptimizerCfg("sgd", lr=0.2), p, g)
    np.testing.assert_allclose(twice["p"].data, once["p"].data)


def test_step_rejects_parameters_of_the_other_kind():
    adamw = FlatParams({"p": t([1.0])}, OptimizerCfg("adamw", lr=0.1))
    with pytest.raises(nk.ContractError, match="sgd_step called on adamw parameters"):
        sgd_step(adamw, np.array([0.5]))
    sgd = FlatParams({"p": t([1.0])}, OptimizerCfg("sgd", lr=0.1))
    with pytest.raises(nk.ContractError, match="adamw_step called on sgd parameters"):
        adamw_step(sgd, np.array([0.5]))
    assert adamw.step_count == sgd.step_count == 0
    assert adamw.tensors["p"].data[0] == sgd.tensors["p"].data[0] == 1.0


def test_adamw_first_step_magnitude():
    cfg = OptimizerCfg("adamw", lr=0.05, weight_decay=0.0)
    out = stepped(adamw_step, cfg, {"p": t([1.0])}, {"p": np.array([0.37])})
    # bias-corrected first step moves by ~lr in the gradient direction
    assert out["p"].data[0] == pytest.approx(1.0 - 0.05, rel=1e-6)


def test_adamw_pure_decay():
    cfg = OptimizerCfg("adamw", lr=0.1, weight_decay=0.01)
    out = stepped(adamw_step, cfg, {"p": t([1.0])}, {"p": np.array([0.0])})
    assert out["p"].data[0] == pytest.approx(0.999)


def _reference_adamw(p, grads, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """Independent scalar AdamW, written directly from the update equations."""
    m = v = 0.0
    traj = []
    for step, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1**step)
        vh = v / (1 - b2**step)
        p = p - lr * mh / (vh**0.5 + eps) - lr * wd * p
        traj.append(p)
    return traj


def test_adamw_trajectory_matches_reference():
    lr, wd = 0.1, 0.01
    flat = FlatParams({"p": t([1.0])}, OptimizerCfg("adamw", lr=lr, weight_decay=wd))
    p = flat.tensors["p"]
    grads = []
    mine = []
    for _ in range(10):
        g = 2.0 * p.data[0]  # f(p) = p^2
        grads.append(g)
        flat.grads["p"][...] = g
        adamw_step(flat, flat.grad)
        mine.append(p.data[0])
    # reference recomputes the same trajectory from the recorded gradients
    ref = _reference_adamw(1.0, grads, lr, wd)
    np.testing.assert_allclose(mine, ref, atol=1e-10)


def test_step_count_monotone():
    flat = FlatParams({"p": t([1.0])}, OptimizerCfg("adamw", lr=0.1))
    for expected in (1, 2, 3):
        adamw_step(flat, np.array([0.1]))
        assert flat.step_count == expected


def test_cfg_validation():
    with pytest.raises(nk.ContractError, match="unknown optimizer kind 'rmsprop'"):
        OptimizerCfg("rmsprop", lr=0.1)
    with pytest.raises(ValueError, match=r"^lr: must be a finite number > 0, got -1\.0$"):
        OptimizerCfg("sgd", lr=-1.0)
    with pytest.raises(ValueError, match=r"^weight_decay: must be a finite number >= 0"):
        OptimizerCfg("sgd", lr=0.1, weight_decay=-0.5)
    nan, inf = float("nan"), float("inf")
    for lr, weight_decay in ((nan, 0.0), (inf, 0.0), (0.1, nan), (0.1, inf)):
        with pytest.raises(ValueError, match="must be a finite number"):
            OptimizerCfg("adamw", lr=lr, weight_decay=weight_decay)
    assert [f.name for f in fields(OptimizerCfg)] == ["kind", "lr", "weight_decay"]


def _reference_step(state: dict, cfg, params: dict, grads: dict) -> dict:
    """The per-group update the flat step replaced, kept as its reference."""
    state["step_count"] += 1
    if cfg.kind == "sgd":
        return {name: p - cfg.lr * grads[name] for name, p in params.items()}
    t = state["step_count"]
    out = {}
    for name, p in params.items():
        g = grads[name]
        m = state["m"].get(name, np.zeros_like(p))
        v = state["v"].get(name, np.zeros_like(p))
        m = 0.9 * m + (1 - 0.9) * g
        v = 0.999 * v + (1 - 0.999) * g * g
        state["m"][name], state["v"][name] = m, v
        update = (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        out[name] = p - cfg.lr * update - cfg.lr * cfg.weight_decay * p
    return out


@pytest.mark.parametrize("kind,weight_decay", [("sgd", 0.0), ("adamw", 0.01)])
def test_flat_step_bitwise_equals_per_group_reference(kind, weight_decay):
    rng = np.random.default_rng(12)
    shapes = {"w": (3, 4), "b": (4,), "table": (5, 2, 3)}
    params = {n: rng.standard_normal(s) for n, s in shapes.items()}
    cfg = OptimizerCfg(kind, lr=0.05, weight_decay=weight_decay)
    ref_state = {"step_count": 0, "m": {}, "v": {}}
    flat = FlatParams({n: t(p) for n, p in params.items()}, cfg)
    ref = params
    for _ in range(10):
        grads = {n: rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3)
                 for n, s in shapes.items()}
        for name, g in grads.items():
            flat.grads[name][...] = g
        (sgd_step if kind == "sgd" else adamw_step)(flat, flat.grad)
        ref = _reference_step(ref_state, cfg, ref, grads)
    for name in shapes:
        assert flat.tensors[name].data.tobytes() == ref[name].tobytes()
    assert flat.step_count == ref_state["step_count"] == 10


def test_flat_step_rejects_nonfinite_result():
    flat = FlatParams({"p": t([1.0, 2.0])}, OptimizerCfg("sgd", lr=1e308))
    with pytest.raises(nk.NumericError), np.errstate(over="ignore"):
        sgd_step(flat, np.array([0.0, 1e10]))


def test_step_rejects_nonfinite_gradient_naming_its_group():
    flat = FlatParams({"w": t([[1.0, 2.0]]), "b": t([0.0])}, OptimizerCfg("sgd", lr=1.0))
    assert flat.grads["w"].shape == (1, 2) and flat.grads["b"].base is flat.grad
    for bad in (np.nan, np.inf, -np.inf):
        flat.grads["w"][...] = [[3.0, 4.0]]
        flat.grads["b"][0] = bad
        with pytest.raises(nk.NumericError, match=r"^non-finite gradient for 'b'$"):
            sgd_step(flat, flat.grad)
    assert flat.step_count == 0 and flat.vector.tolist() == [1.0, 2.0, 0.0]


def test_step_rejects_a_gradient_of_the_wrong_shape():
    params = {"w": t(np.ones((3, 4))), "b": t(np.zeros(4))}
    for kind in ("sgd", "adamw"):
        flat = FlatParams(params, OptimizerCfg(kind, lr=0.05))
        for bad in (np.zeros(3), np.zeros((16, 1))):
            with pytest.raises(nk.ShapeError, match=r"vs parameter vector \(16,\)$"):
                nk.step(flat, bad)
        assert flat.step_count == 0
