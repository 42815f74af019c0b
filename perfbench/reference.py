"""Fixed reference task that the benchmark times next to every verb invocation.

The machine this benchmark runs on changes speed by up to 2x for stretches
of seconds to minutes (host contention that the guest cannot see).  Timing
this fixed task just before and just after each invocation gives the
machine's speed at that moment, and `run.py` reports times scaled by it.

The task mixes the kinds of work the verbs do, in one fresh process like
them: importing numpy and scipy, parsing LIBSVM-like text in pure Python, a
loop of small numpy updates like the coupled kernel, and a dense margin
matrix like the risk sum.  It does not use the package, so no change to the
package can change it.  Run as `python3 perfbench/reference.py`.
"""

import numpy as np
import scipy.sparse  # noqa: F401  imported by the package's data layer
from scipy.special import expit


def main() -> None:
    rng = np.random.default_rng(12345)
    dim, rows = 112, 3000
    cols = [np.sort(rng.choice(dim, 22, replace=False)) for _ in range(rows)]
    text = "\n".join("1 " + " ".join(f"{j + 1}:1" for j in c) for c in cols)

    parsed = []
    for line in text.splitlines():
        tokens = line.split()
        feats = [tok.split(":") for tok in tokens[1:]]
        parsed.append((float(tokens[0]), [int(i) - 1 for i, _ in feats], [float(v) for _, v in feats]))

    W = np.zeros((2, dim))
    M = np.zeros((2, dim))
    for k in range(12000):
        _, ix, vx = parsed[k % rows]
        scales = -expit(-(W[:, ix] @ vx))
        M *= 0.9
        M[:, ix] += scales[:, None] * vx
        W -= 0.001 * M

    X = np.zeros((rows, dim))
    for r, (_, ix, vx) in enumerate(parsed):
        X[r, ix] = vx
    iterates = rng.standard_normal((600, dim)) * 0.01
    risk = np.logaddexp(0.0, -(X @ iterates.T)).mean(axis=0)
    if not np.isfinite(risk).all():
        raise SystemExit("reference task produced a non-finite risk")


if __name__ == "__main__":
    main()
