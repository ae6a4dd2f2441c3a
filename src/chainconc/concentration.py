"""Martingale machinery, Gamma constructions, variance proxies, tail bounds.

The pipeline: a function's local oscillations are propagated by an
upper-triangular Gamma matrix (build_gamma: contraction coefficients,
mixing-time blocks, or exact couplings), giving a subgaussian variance proxy
for f - E f and a tail-bound curve. Three variance conventions are exposed
rather than silently picking one:

  exact   : (1/4) ||Gamma c||^2      (tightest, per-coordinate weights)
  opnorm  : (1/4) ||Gamma||^2 ||c||^2
  paper   : ||Gamma||^2 ||c||^2      (the form often quoted without the 1/4)

Always sigma2_exact <= sigma2_opnorm = sigma2_paper / 4. ||Gamma|| is a
certified upper bound, never an approximation from below: the Collatz-Wielandt
bound on the largest eigenvalue of Gamma^T Gamma at a near-Perron vector, plus
a rounding guard (gamma.operator_norm). Every Gamma finds that vector by Noda
iteration: contractive and ergodic Gammas solve with their bidiagonal factors,
with no Gram matrix or LAPACK; brute-force Gammas with a blocked Cholesky
factorization of the shifted Gram matrix. Contractive and ergodic Gammas are
stored in factored form, O(n) numbers, and take Gamma c and Gamma^T z by O(n)
recurrences, so their sigma2 takes no BLAS call; squared norms are summed by
math.fsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import (
    ChainSpec,
    forward_law,
    prefix_probability,
    t_step_coefficients,
)
from .coupling import wasserstein_matrix_tv
from .errors import (EnumerationCapError, NoMixError, ValidationError, enumeration_cap, json_native,
                     size_text)
from .gamma import GammaMatrix, gamma_contractive, gamma_ergodic, operator_norm

CONVENTIONS = ("exact", "opnorm", "paper")
METHODS = ("contractive", "ergodic", "brute_force")

T_GRID_MULTIPLIERS = tuple(0.5 * k for k in range(1, 11))

CONVENTION_CAVEAT = (
    "sigma2_paper = ||Gamma||^2 ||c||^2 without the 1/4 factor; "
    "sigma2_opnorm = sigma2_paper / 4 and sigma2_exact <= sigma2_opnorm always"
)


@dataclass(frozen=True)
class LipschitzWeights:
    """Weighted-Hamming Lipschitz constants: |f(x)-f(y)| <= sum_i c_i 1{x_i != y_i}."""

    c: np.ndarray

    @classmethod
    def from_array(cls, arr) -> "LipschitzWeights":
        try:
            c = np.asarray(arr, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"weights must be numbers: {exc}") from exc
        if c.ndim != 1 or c.size == 0:
            raise ValidationError("weights must be a nonempty 1-d vector")
        if not np.isfinite(c).all():
            raise ValidationError("weights must be finite")
        if np.any(c < 0):
            raise ValidationError("weights must be nonnegative")
        return cls(c)

    @classmethod
    def ones(cls, n: int) -> "LipschitzWeights":
        return cls(np.ones(n))

    def __len__(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class TabularFunction:
    """Real-valued function on the joint space, stored flat in row-major order."""

    values: np.ndarray

    @classmethod
    def from_vectorized(cls, spec: ChainSpec, fn, cap: int | None = None) -> "TabularFunction":
        """Tabulate fn over the joint space in one shot.

        fn receives one integer index array per coordinate, open-grid style:
        array c has shape (1, ..., coord_sizes[c], ..., 1), so any elementwise
        expression of them, such as sum((g == 1).astype(float) for g in grids),
        broadcasts to the joint shape. Its result is broadcast to coord_sizes
        and flattened row-major. Raises EnumerationCapError when the joint
        space exceeds the cap.
        """
        total = spec.joint_size()
        limit = enumeration_cap(cap)
        if total > limit:
            raise EnumerationCapError(
                f"joint space of size {size_text(total)} exceeds enumeration cap {limit}")
        vals = np.asarray(fn(list(np.indices(spec.coord_sizes, sparse=True))), dtype=float)
        try:
            vals = np.broadcast_to(vals, spec.coord_sizes)
        except ValueError as exc:
            raise ValidationError("vectorized tabulation returned a wrong-shaped array") from exc
        return cls(vals.flatten())

    def table(self, spec: ChainSpec) -> np.ndarray:
        if self.values.size != spec.joint_size():
            raise ValidationError(f"table length {self.values.size} does not match "
                                  f"joint size {size_text(spec.joint_size())}")
        return self.values.reshape(spec.coord_sizes)

    def at(self, spec: ChainSpec, states) -> float:
        return float(self.table(spec)[tuple(int(s) for s in states)])

    def value_range(self, spec: ChainSpec) -> tuple[float, float]:
        """min f and max f over the joint space."""
        table = self.table(spec)
        return float(table.min()), float(table.max())


@dataclass(frozen=True)
class AdditiveFunction:
    """f(x) = sum_i g[i, x_i], summed in coordinate order, without the joint table.

    g is an (n, S) table with S at least the largest coordinate size; the
    entries of row i past coord_sizes[i] are never read. Values along
    trajectories, the exact mean, the local oscillations and the range each
    cost O(n S) per trajectory or per chain, whatever the joint size.
    """

    g: np.ndarray

    def rows(self, spec: ChainSpec) -> np.ndarray:
        """g, checked against spec: one finite row per coordinate, each wide enough."""
        g = np.asarray(self.g, dtype=float)
        if g.ndim != 2 or g.shape[0] != spec.n or g.shape[1] < max(spec.coord_sizes):
            raise ValidationError(f"additive table of shape {g.shape} does not fit a chain of "
                                  f"length {spec.n} with up to {max(spec.coord_sizes)} states")
        if not np.isfinite(g).all():
            raise ValidationError("additive table must contain only finite values")
        return g

    def evaluate(self, states: np.ndarray) -> np.ndarray:
        """f along each row of an (m, n) trajectory matrix, from 0.0 in coordinate
        order, as a sum over the tabulated function's open grids adds them."""
        out = np.zeros(len(states))
        for i, row in enumerate(np.asarray(self.g, dtype=float)):
            out += row.take(states[:, i])
        return out

    def mean(self, spec: ChainSpec) -> float:
        """Exact E f = sum_i sum_s P(X_i = s) g[i, s], the products summed by math.fsum.

        The marginals go forward by elementwise products summed over the
        previous state in order, so no BLAS call sets their bits.
        """
        g = self.rows(spec)
        law = spec.initial.probs
        terms = (law * g[0, :law.size]).tolist()
        for i, kernel in enumerate(spec.kernels, start=1):
            law = np.add.reduce(law[:, None] * kernel.rows, axis=0)
            terms += (law * g[i, :law.size]).tolist()
        return math.fsum(terms)

    def extremes(self, spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
        """Each row's min and max over the states of its coordinate."""
        g = self.rows(spec)
        valid = np.arange(g.shape[1]) < np.asarray(spec.coord_sizes)[:, None]
        return np.where(valid, g, np.inf).min(axis=1), np.where(valid, g, -np.inf).max(axis=1)

    def oscillations(self, spec: ChainSpec) -> np.ndarray:
        """The local oscillation of f at each coordinate: its row's max - min."""
        low, high = self.extremes(spec)
        return high - low

    def value_range(self, spec: ChainSpec) -> tuple[float, float]:
        """min f and max f over the joint space: the row minima and maxima summed
        as evaluate sums, which by monotone rounding are the table's own extremes."""
        lo = hi = 0.0
        for a, b in zip(*(v.tolist() for v in self.extremes(spec))):
            lo += a
            hi += b
        return lo, hi


def local_oscillation_vector(f: TabularFunction | AdditiveFunction, spec: ChainSpec) -> np.ndarray:
    """Exact local oscillation of f at each coordinate.

    Entry i is the maximum of |f(x) - f(y)| over pairs differing only in
    coordinate i (discrete metric, so no normalization). For an additive f it
    is row i's max - min; for a table, the widest max - min spread along axis
    i, which needs no moved copy of the table.
    """
    if isinstance(f, AdditiveFunction):
        return f.oscillations(spec)
    table = f.table(spec)
    return np.array([float((table.max(axis=c) - table.min(axis=c)).max()) for c in range(spec.n)])


# ---------------------------------------------------------------------------
# conditional expectations and martingale differences


def conditional_expectation(f: TabularFunction, spec: ChainSpec, prefix) -> float:
    """Exact E[f | X_0..X_{i-1} = prefix]: the prefix's entry of conditional_expectation_tables.

    The prefix must have positive probability. An empty prefix gives E[f]; a
    full prefix gives f at that trajectory.
    """
    states = [int(s) for s in prefix]
    if prefix_probability(spec, states) <= 0.0:
        raise ValidationError(f"prefix {tuple(states)} has zero probability")
    return float(conditional_expectation_tables(f, spec)[len(states)][tuple(states)])


def conditional_expectation_tables(f: TabularFunction, spec: ChainSpec) -> list[np.ndarray]:
    """All prefix-conditional expectations at once, by backward recursion.

    Returns [T_0, ..., T_n] where T_m has shape coord_sizes[:m] and
    T_m[p] = E[f | X_0..X_{m-1} = p]; T_0 is the scalar E[f] (shape ()) and
    T_n is f itself. Zero-probability prefixes carry the natural
    kernel-product extension.
    """
    return list(_backward_tables(f, spec))[::-1]


def _backward_tables(f: TabularFunction, spec: ChainSpec):
    """T_n, ..., T_0 of conditional_expectation_tables, each from the one before;
    T_n is f's own table when that is float."""
    table = np.asarray(f.table(spec), dtype=float)
    yield table
    for m in range(spec.n - 1, 0, -1):
        table = np.einsum("...uv,uv->...u", table, spec.kernels[m - 1].rows)
        yield table
    yield np.asarray(table @ spec.initial.probs)


def expectation(f: TabularFunction, spec: ChainSpec) -> float:
    """Exact E[f]: T_0 of conditional_expectation_tables, holding two tables at a time."""
    for table in _backward_tables(f, spec):
        pass
    return float(table)


def martingale_differences(f: TabularFunction, spec: ChainSpec, traj) -> np.ndarray:
    """Martingale increments of the Doob decomposition of f along a trajectory.

    traj is any sequence of n states. Entry i is E[f | X_0..X_i] -
    E[f | X_0..X_{i-1}] evaluated along traj; the increments telescope to
    f(traj) - E[f].
    """
    states = [int(s) for s in traj]
    if len(states) != spec.n:
        raise ValidationError(f"trajectory length {len(states)} does not match chain length {spec.n}")
    if prefix_probability(spec, states) <= 0.0:
        raise ValidationError(f"trajectory {tuple(states)} has zero probability")
    tables = conditional_expectation_tables(f, spec)
    out = np.empty(spec.n)
    for i in range(spec.n):
        upper = float(tables[i + 1][tuple(states[: i + 1])])
        lower = float(tables[i][tuple(states[:i])])
        out[i] = upper - lower
    return out


@dataclass(frozen=True)
class MartingaleBrackets:
    """Per-prefix bracketing of one martingale increment.

    lower/upper are flat over prefixes of coordinates < i (row-major);
    prefix_probs marks which prefixes are realizable. width is the sup of
    upper - lower over realizable prefixes, and oscillation_bound is the
    local oscillation of E[f | X_0..X_i] at coordinate i (the widest spread
    over values of coordinate i, across all prefixes), which dominates width.
    """

    coordinate: int
    lower: np.ndarray
    upper: np.ndarray
    prefix_probs: np.ndarray
    width: float
    oscillation_bound: float


def martingale_brackets(f: TabularFunction, spec: ChainSpec, i: int) -> MartingaleBrackets:
    """Bracket the i-th martingale increment between prefix functions A_i and B_i.

    For each realizable prefix p of coordinates < i, the increment lies in
    [A_i(p), B_i(p)] where the bracket endpoints scan the admissible values
    of coordinate i. Verifies sup(B_i - A_i) <= oscillation of the tabulated
    conditional expectation at coordinate i (within 1e-12) and raises
    ValidationError otherwise: a violation would falsify the bracketing
    theorem and means a numerical bug.
    """
    if not 0 <= i < spec.n:
        raise ValidationError(f"coordinate {i} out of range for chain of length {spec.n}")
    tables = conditional_expectation_tables(f, spec)
    g = tables[i + 1].reshape(-1, spec.coord_sizes[i])  # rows: prefixes, cols: value at coord i
    center = tables[i].ravel()

    # conditional probability of each coordinate-i value given the prefix
    if i == 0:
        cond = np.broadcast_to(spec.initial.probs, g.shape)
        prefix_probs = np.ones(1)
    else:
        prefix_probs = forward_law(spec, spec.initial.probs, 0, i)
        cond = spec.kernels[i - 1].rows[np.arange(prefix_probs.size) % spec.coord_sizes[i - 1]]

    admissible = cond > 0.0
    lower = np.where(admissible, g, np.inf).min(axis=1) - center
    upper = np.where(admissible, g, -np.inf).max(axis=1) - center
    realizable = prefix_probs > 0.0
    width = float((upper - lower)[realizable].max()) if realizable.any() else 0.0

    bound = float((g.max(axis=1) - g.min(axis=1)).max())
    if width > bound + 1e-12:
        raise ValidationError(
            f"bracket width {width} exceeds oscillation bound {bound} at coordinate {i}"
        )
    return MartingaleBrackets(i, lower, upper, prefix_probs, width, bound)


# ---------------------------------------------------------------------------
# mixing time, variance proxies, tail bounds


def mixing_time(spec: ChainSpec, eps: float) -> int | None:
    """Smallest t with worst-case t-step pair TV <= eps at every position, else None.

    Reads the lag table of t_step_coefficients: the first lag whose largest
    Dobrushin coefficient is at most eps, so the result is bitwise that of
    evaluating t_step_pair_tv at every (i, t). Each lag costs one stacked
    matmul and one batched coefficient per run of equal-shape kernels, over
    its n - t products.

    None means the chain does not mix to level eps within its horizon
    ("no-mix"); callers that need a finite mixing time must treat it as such.
    """
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"eps = {eps} must lie in (0, 1)")
    for t, coefficients in enumerate(t_step_coefficients(spec), start=1):
        if coefficients.max() <= eps:
            return t
    return None


def variance_proxy(g: GammaMatrix, c: LipschitzWeights, convention: str) -> float:
    """Subgaussian variance proxy under the named convention (exact/opnorm/paper)."""
    if convention not in CONVENTIONS:
        raise ValidationError(f"unknown convention {convention!r}; expected one of {CONVENTIONS}")
    if g.n != len(c):
        raise ValidationError(f"gamma is {g.n}x{g.n} but weights have length {len(c)}")
    if convention == "exact":
        return 0.25 * _squared_norm(g.matvec(c.c))
    paper = operator_norm(g) ** 2 * _squared_norm(c.c)
    return paper if convention == "paper" else 0.25 * paper


def _squared_norm(v: np.ndarray) -> float:
    """||v||^2, its sum correctly rounded (math.fsum), so in no BLAS's order."""
    return math.fsum(x * x for x in v.tolist())


def tail_bound(sigma2: float, t: float) -> float:
    """One-sided subgaussian tail bound exp(-t^2 / (2 sigma2))."""
    if sigma2 <= 0:
        raise ValidationError(f"sigma2 = {sigma2} must be positive")
    return math.exp(-(t * t) / (2.0 * sigma2))


def default_t_grid(sigma2: float) -> np.ndarray:
    """Deviation grid {0.5, 1, ..., 5} * sqrt(sigma2)."""
    return np.array(T_GRID_MULTIPLIERS) * math.sqrt(sigma2)


# ---------------------------------------------------------------------------
# the assembled certificate


@dataclass(frozen=True)
class ConcentrationReport:
    """Everything certify computes: Gamma, all variance conventions, tail curve."""

    method: str
    convention: str
    gamma: GammaMatrix
    weights: np.ndarray
    effective_weights: np.ndarray
    sigma2_exact: float
    sigma2_opnorm: float
    sigma2_paper: float
    sigma2_selected: float
    tail_curve: tuple[tuple[float, float], ...]
    details: dict = field(default_factory=dict)
    caveats: tuple[str, ...] = (CONVENTION_CAVEAT,)

    def document(self) -> dict:
        """The report of this certificate, its arrays left in place."""
        return {
            "method": self.method,
            "convention": self.convention,
            "gamma": self.gamma.document(),
            "weights": self.weights,
            "effective_weights": self.effective_weights,
            "sigma2_exact": self.sigma2_exact,
            "sigma2_opnorm": self.sigma2_opnorm,
            "sigma2_paper": self.sigma2_paper,
            "sigma2_selected": self.sigma2_selected,
            "tail_curve": [[t, b] for t, b in self.tail_curve],
            "details": self.details,
            "caveats": list(self.caveats),
        }

    def to_dict(self) -> dict:
        return json_native(self.document())

    def tail_curve_csv(self) -> str:
        lines = ["t,bound"]
        lines += [f"{t!r},{b!r}" for t, b in self.tail_curve]
        return "\n".join(lines) + "\n"


def build_gamma(spec: ChainSpec, method: str, eps: float | None = None) -> tuple[GammaMatrix, dict]:
    """The Gamma matrix of a chain under the named construction, with its details.

    "contractive" uses running products of per-step Dobrushin coefficients
    (details: thetas). "ergodic" partitions the chain into mixing-time blocks
    at level eps (details: eps, tau, n_blocks); a single coordinate is one
    block with tau = 1, since there is nothing to mix across. "brute_force"
    is the exact coupling matrix of wasserstein_matrix_tv (no details).
    """
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "contractive":
        thetas = next(t_step_coefficients(spec), np.empty(0)).tolist()
        return gamma_contractive(thetas), {"thetas": thetas}
    if method == "brute_force":
        return wasserstein_matrix_tv(spec), {}
    if eps is None:
        raise ValidationError("ergodic method requires eps")
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"eps = {eps} must lie in (0, 1)")
    tau = 1 if spec.n == 1 else mixing_time(spec, eps)
    if tau is None:
        raise NoMixError(f"chain does not mix to eps = {eps} within horizon {spec.n}")
    n_blocks = -(-spec.n // tau)
    return gamma_ergodic(n_blocks, eps), {"eps": eps, "tau": tau, "n_blocks": n_blocks}


def certify(spec: ChainSpec, weights: LipschitzWeights, method: str,
            eps: float | None = None, convention: str = "opnorm",
            t_grid=None) -> ConcentrationReport:
    """Build a concentration certificate for weighted-Hamming Lipschitz functions.

    method selects the Gamma construction of build_gamma: "contractive"
    (running products of per-step Dobrushin coefficients), "ergodic"
    (mixing-time blocks at level eps; block weights are sums of the
    per-coordinate weights) or "brute_force" (the exact coupling matrix, in
    closed form). The tail curve is evaluated at the selected convention's
    sigma2.
    """
    if convention not in CONVENTIONS:
        raise ValidationError(f"unknown convention {convention!r}; expected one of {CONVENTIONS}")
    if len(weights) != spec.n:
        raise ValidationError(f"weights length {len(weights)} does not match chain length {spec.n}")

    gamma, details = build_gamma(spec, method, eps)
    effective = weights
    if method == "ergodic":
        tau = details["tau"]
        block_sums = [float(weights.c[k * tau:(k + 1) * tau].sum())
                      for k in range(details["n_blocks"])]
        effective = LipschitzWeights(np.asarray(block_sums))
        details["block_weights"] = block_sums

    sigma2_exact = variance_proxy(gamma, effective, "exact")
    sigma2_paper = variance_proxy(gamma, effective, "paper")
    sigma2_opnorm = 0.25 * sigma2_paper
    selected = {"exact": sigma2_exact, "opnorm": sigma2_opnorm, "paper": sigma2_paper}[convention]

    if t_grid is None:
        t_grid = default_t_grid(selected) if selected > 0 else np.array([])
    curve = tuple((float(t), tail_bound(selected, float(t))) for t in np.asarray(t_grid))

    return ConcentrationReport(
        method=method,
        convention=convention,
        gamma=gamma,
        weights=weights.c,
        effective_weights=effective.c,
        sigma2_exact=sigma2_exact,
        sigma2_opnorm=sigma2_opnorm,
        sigma2_paper=sigma2_paper,
        sigma2_selected=selected,
        tail_curve=curve,
        details=details,
    )
