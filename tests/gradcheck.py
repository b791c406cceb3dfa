"""Central finite-difference gradient checking shared by the op and model tests."""

import numpy as np

from fedskew import numkit as nk


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
        scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
        err = np.abs(analytic - numeric).max() / scale
        worst = max(worst, err)
        assert err < rtol, f"gradient mismatch for {name}: rel err {err:.3g}"
    return worst
