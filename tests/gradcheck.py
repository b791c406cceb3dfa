"""Central finite-difference gradient checking shared by the op and model tests."""

import numpy as np

from fedskew import numkit as nk


def _assert_close(analytic, numeric, name, rtol) -> float:
    """The largest difference relative to the larger gradient's largest entry, asserted
    below `rtol`."""
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
    err = np.abs(analytic - numeric).max() / scale
    assert err < rtol, f"gradient mismatch for {name}: rel err {err:.3g}"
    return err


def finite_diff_check(fn, inputs, h=1e-5, rtol=1e-4, names=None):
    """Compare analytic gradients of scalar fn(*leaves) against central differences.

    fn: callable taking GradNode leaves, returning a scalar GradNode.
    inputs: list of ndarrays; each becomes a trainable leaf.
    Returns the max relative error seen.
    """
    if names is None:
        names = [f"x{i}" for i in range(len(inputs))]
    leaves = [nk.leaf(x.copy(), name=n) for x, n in zip(inputs, names)]
    loss = fn(*leaves)
    grads = nk.backward(loss)

    worst = 0.0
    for x, name in zip(inputs, names):
        analytic = grads[name]
        numeric = np.zeros_like(x, dtype=np.float64)
        flat = x.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(fn(*[nk.leaf(v.copy()) for v in inputs]).value)
            flat[i] = orig - h
            down = float(fn(*[nk.leaf(v.copy()) for v in inputs]).value)
            flat[i] = orig
            numeric.reshape(-1)[i] = (up - down) / (2 * h)
        worst = max(worst, _assert_close(analytic, numeric, name, rtol))
    return worst


def step_fd_check(step, params, ids, labels, seed=0, h=1e-5, rtol=1e-4):
    """Compare the gradients a `make_loss_and_grad` function writes for every trainable
    group of `params` against central differences of the loss it returns.

    Every call draws its dropout masks from a fresh `derive(seed, "dropout")` stream, so
    each loss is of the same masks.  Returns the max relative error seen.
    """
    flat = nk.FlatParams(params.trainable_dict(), nk.OptimizerCfg("sgd", 1.0))
    params = params.with_tensors(flat.tensors)  # they read the vector perturbed below
    step(params, ids, labels, nk.derive(seed, "dropout"), flat.grads)
    numeric = np.zeros_like(flat.vector)
    for i in range(flat.vector.size):
        orig = flat.vector[i]
        flat.vector[i] = orig + h
        up = step(params, ids, labels, nk.derive(seed, "dropout"), {})
        flat.vector[i] = orig - h
        down = step(params, ids, labels, nk.derive(seed, "dropout"), {})
        flat.vector[i] = orig
        numeric[i] = (up - down) / (2 * h)

    worst, lo = 0.0, 0
    for name, analytic in flat.grads.items():
        num = numeric[lo : lo + analytic.size].reshape(analytic.shape)
        lo += analytic.size
        worst = max(worst, _assert_close(analytic, num, name, rtol))
    return worst
