import numpy as np
import pytest

from fedskew import numkit as nk
from fedskew.numkit import FlatParams, OptimizerState, adamw_step, sgd_step


def t(x):
    return nk.Tensor(np.asarray(x, dtype=np.float64))


def stepped(step_fn, state, params: dict, grads: dict) -> dict:
    """One flat `step_fn` on {name: Tensor} params; returns the updated tensors by name."""
    flat = FlatParams(params)
    step_fn(state, flat.vector, flat.gather(grads))
    return flat.tensors


def test_sgd_single_step():
    st = OptimizerState("sgd", lr=0.01)
    out = stepped(sgd_step, st, {"p": t([1.0])}, {"p": np.array([0.5])})
    assert out["p"].data[0] == pytest.approx(0.995)
    assert st.step_count == 1


def test_sgd_zero_gradient_noop():
    st = OptimizerState("sgd", lr=0.1)
    out = stepped(sgd_step, st, {"p": t([2.0, 3.0])}, {"p": np.zeros(2)})
    np.testing.assert_array_equal(out["p"].data, [2.0, 3.0])


def test_sgd_linearity_for_constant_gradient():
    st = OptimizerState("sgd", lr=0.1)
    p = {"p": t([1.0])}
    g = {"p": np.array([0.3])}
    twice = stepped(sgd_step, st, stepped(sgd_step, st, p, g), g)
    st2 = OptimizerState("sgd", lr=0.2)
    once = stepped(sgd_step, st2, p, g)
    np.testing.assert_allclose(twice["p"].data, once["p"].data)


def test_sgd_missing_gradient_raises():
    st = OptimizerState("sgd", lr=0.1)
    with pytest.raises(nk.ContractError):
        stepped(sgd_step, st, {"p": t([1.0])}, {})


def test_adamw_first_step_magnitude():
    st = OptimizerState("adamw", lr=0.05, weight_decay=0.0)
    out = stepped(adamw_step, st, {"p": t([1.0])}, {"p": np.array([0.37])})
    # bias-corrected first step moves by ~lr in the gradient direction
    assert out["p"].data[0] == pytest.approx(1.0 - 0.05, rel=1e-6)


def test_adamw_pure_decay():
    st = OptimizerState("adamw", lr=0.1, weight_decay=0.01)
    out = stepped(adamw_step, st, {"p": t([1.0])}, {"p": np.array([0.0])})
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
    st = OptimizerState("adamw", lr=lr, weight_decay=wd)
    p = t([1.0])
    grads = []
    mine = []
    for _ in range(10):
        g = 2.0 * p.data[0]  # f(p) = p^2
        grads.append(g)
        p = stepped(adamw_step, st, {"p": p}, {"p": np.array([g])})["p"]
        mine.append(p.data[0])
    # reference recomputes the same trajectory from the recorded gradients
    ref = _reference_adamw(1.0, grads, lr, wd)
    np.testing.assert_allclose(mine, ref, atol=1e-10)


def test_step_count_monotone():
    st = OptimizerState("adamw", lr=0.1)
    p = {"p": t([1.0])}
    for expected in (1, 2, 3):
        p = stepped(adamw_step, st, p, {"p": np.array([0.1])})
        assert st.step_count == expected


def test_state_validation():
    with pytest.raises(nk.ContractError):
        OptimizerState("rmsprop", lr=0.1)
    with pytest.raises(nk.ContractError):
        OptimizerState("sgd", lr=-1.0)
    with pytest.raises(nk.ContractError):
        OptimizerState("sgd", lr=0.1, weight_decay=-0.5)
    nan, inf = float("nan"), float("inf")
    for lr, weight_decay in ((nan, 0.0), (inf, 0.0), (0.1, nan), (0.1, inf)):
        with pytest.raises(nk.ContractError, match="must be finite"):
            OptimizerState("adamw", lr=lr, weight_decay=weight_decay)


def _reference_step(state, params: dict, grads: dict) -> dict:
    """The per-group update the flat step replaced, kept as its reference."""
    state.step_count += 1
    if state.kind == "sgd":
        return {name: p - state.lr * grads[name] for name, p in params.items()}
    t = state.step_count
    out = {}
    for name, p in params.items():
        g = grads[name]
        m = state.m.get(name, np.zeros_like(p))
        v = state.v.get(name, np.zeros_like(p))
        m = 0.9 * m + (1 - 0.9) * g
        v = 0.999 * v + (1 - 0.999) * g * g
        state.m[name], state.v[name] = m, v
        update = (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        out[name] = p - state.lr * update - state.lr * state.weight_decay * p
    return out


@pytest.mark.parametrize("kind,weight_decay", [("sgd", 0.0), ("adamw", 0.01)])
def test_flat_step_bitwise_equals_per_group_reference(kind, weight_decay):
    rng = np.random.default_rng(12)
    shapes = {"w": (3, 4), "b": (4,), "table": (5, 2, 3)}
    params = {n: rng.standard_normal(s) for n, s in shapes.items()}
    flat_state = OptimizerState(kind, lr=0.05, weight_decay=weight_decay)
    ref_state = OptimizerState(kind, lr=0.05, weight_decay=weight_decay)
    ref_state.m, ref_state.v = {}, {}
    flat = FlatParams({n: t(p) for n, p in params.items()})
    ref = params
    for _ in range(10):
        grads = {n: rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3)
                 for n, s in shapes.items()}
        step_fn = sgd_step if kind == "sgd" else adamw_step
        step_fn(flat_state, flat.vector, flat.gather(grads))
        ref = _reference_step(ref_state, ref, grads)
    for name in shapes:
        assert flat.tensors[name].data.tobytes() == ref[name].tobytes()
    assert flat_state.step_count == ref_state.step_count == 10


def test_flat_step_rejects_nonfinite_result():
    flat = FlatParams({"p": t([1.0, 2.0])})
    with pytest.raises(nk.NumericError), np.errstate(over="ignore"):
        sgd_step(OptimizerState("sgd", lr=1e308), flat.vector, np.array([0.0, 1e10]))


def test_gather_rejects_nonfinite_gradient_naming_its_group():
    flat = FlatParams({"w": t([[1.0, 2.0]]), "b": t([0.0])})
    assert flat.gather({"w": np.array([[3.0, 4.0]]), "b": np.array([5.0])}).tolist() == [3, 4, 5]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(nk.NumericError, match=r"^non-finite gradient for 'b'$"):
            flat.gather({"w": np.array([[3.0, 4.0]]), "b": np.array([bad])})
