"""Command-line front end: file-based, reproducible certificate and verification runs.

Exit codes: 0 success, 1 malformed input (an input that cannot be read or an
output that cannot be written included), 2 infeasible computation
(a policy-class cap exceeded, or a method that needs a mixing time when the
chain has none), 3 verification failure (an empirical quantity
exceeded its certified bound beyond Monte Carlo error). Code 3 is the highest-severity
outcome: it means the theory the certificate encodes was falsified.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import numpy as np

from . import __version__
from .chain import ChainSpec, Distribution, chain_from_dict, tv_distance
from .concentration import (
    CONVENTION_CAVEAT,
    CONVENTIONS,
    AdditiveFunction,
    LipschitzWeights,
    TabularFunction,
    build_gamma,
    certify,
    gamma_contractive,
    gamma_ergodic,
    local_oscillation_vector,
    mixing_time,
)
from .coupling import goldstein_coupling
from .errors import (
    DEFAULT_POLICY_CAP,
    ChainconcError,
    EnumerationCapError,
    NoMixError,
    RowStream,
    ValidationError,
    json_default,
    json_int,
    size_text,
)
from .rl import (
    HammingMetric,
    MixingTimeMetric,
    dudley_bound,
    enumerate_policies,
    finite_state_bound,
    induced_chain,
    maximal_bound,
    mdp_from_dict,
    policy_to_dict,
)
from .verify import empirical_sup_value, empirical_tail

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_INFEASIBLE = 2
EXIT_VIOLATION = 3

POLICY_COUNT_CAVEAT = (
    "the maximal inequality uses the exact policy count |Pi| = A^S; the "
    "finite-state formulas take log(S*A) verbatim, which differs whenever "
    "ln|Pi| != ln(S*A)"
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; keep 2 reserved for infeasibility
    def error(self, message):
        self.exit(EXIT_MALFORMED, f"{self.prog}: error: {message}\n")


def _meta(args: argparse.Namespace) -> dict:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    return {"tool": "chainconc", "version": __version__, "config": config}


FORMAT_BATCH = 1536  # floats a report buffers for one call of float_text


def _write_json(path: str, doc: dict) -> None:
    """Write doc byte for byte as json.dump(doc, fh, indent=2, sort_keys=True,
    default=json_default), plus a newline: an ndarray or a RowStream is written
    as its tolist().

    The stdlib's encoder writes every container, every 1-D array and every
    list of floats. A RowStream, a Gamma's rows and the only n^2 data a report
    carries, is handed to its default hook, which keeps it and returns None:
    the "null" the encoder then yields is where _dump_rows writes its rows, at
    the indentation of the line that leads to it.
    """
    streams = []

    def default(obj):
        if type(obj) is RowStream:
            streams.append(obj)
            return None
        return json_default(obj)

    chunks = json.JSONEncoder(indent=2, sort_keys=True, default=default).iterencode(doc)
    with open(path, "w", encoding="utf-8") as fh:
        out = _Text(fh)
        pieces = []  # the stdlib's text since the last RowStream
        for chunk in chunks:
            if streams:  # chunk is the "null" of the hook's None
                text = "".join(pieces)
                pieces.clear()
                out.write(text)
                # the stdlib breaks the line before each item of a container,
                # and an escaped string holds no line break
                line = text[text.rfind("\n") + 1:]
                indent = len(line) - len(line.lstrip(" "))
                _dump_rows(streams.pop(), out, "\n" + " " * indent)
            else:
                pieces.append(chunk)
        out.write("".join(pieces) + "\n")
        out.flush()


class _Text:
    """A report as it is written: strings, and float64 arrays as their JSON
    tokens. The floats are copied into one buffer and formatted by one call of
    float_text when it fills, or at flush; what is written after them waits
    in plan until then."""

    def __init__(self, fh):
        self.fh = fh
        self.buffer = np.empty(FORMAT_BATCH)
        self.count = 0  # floats in the buffer
        self.plan = []  # (text, times): text repeated; (k, sep, parts): the next k tokens
        self.tables = None  # float_text's, built at the first flush and dropped with the report

    def write(self, text: str, times: int = 1) -> None:
        if self.plan:
            self.plan.append((text, times))
        else:
            self.fh.write(text * times)

    def floats(self, values: np.ndarray, sep: str, parts: list | None = None) -> None:
        """Write the tokens of a nonempty 1-D float64 array joined by sep; if
        parts is a list, their text is appended to it in pieces that sep joins."""
        start = 0
        while start < len(values):
            k = min(len(values) - start, FORMAT_BATCH - self.count)
            self.buffer[self.count:self.count + k] = values[start:start + k]
            self.count += k
            start += k
            self.plan.append((k, sep, parts))
            if start < len(values):
                self.plan.append((sep, 1))
            if self.count == FORMAT_BATCH:
                self.flush()

    def flush(self) -> None:
        """Format the buffered floats and write everything that waited for them."""
        if not self.count:
            return
        from . import floattext  # loaded only by a report that carries a Gamma
        if self.tables is None:
            self.tables = floattext.build_tables()
        text, ends = floattext.float_text(self.buffer[:self.count], self.tables)
        ends = ends.tolist()
        start = done = 0
        for item in self.plan:
            if len(item) == 2:
                self.fh.write(item[0] * item[1])
                continue
            k, sep, parts = item
            done += k
            piece = text[start:ends[done - 1] - 1].replace(",", sep)
            start = ends[done - 1]
            self.fh.write(piece)
            if parts is not None:
                parts.append(piece)
        self.plan.clear()
        self.count = 0


def _dump_rows(rows: RowStream, out: _Text, newline: str) -> None:
    """Write the rows of a RowStream, each a 1-D float64 array, one at a time,
    at the depth whose line break is newline.

    A row writes its leading +0.0 entries as one repeated string and hands
    only its tail to out. The first such tail's text is kept: a later tail
    that is bitwise a prefix of it, as in a Toeplitz Gamma whose rows shift
    right by one, is a slice of that text, so it is formatted once.
    """
    inner = newline + "  "
    sep = "," + inner + "  "
    first = parts = text = ends = None  # the first tail: bytes, text pieces, text, item ends
    lead = "[" + inner
    for row in rows:
        if not row.size:
            out.write(lead + "[]")
        else:
            bits = row.tobytes()  # a nonzero double has a nonzero byte
            zeros = (len(bits) - len(bits.lstrip(b"\0"))) // 8
            tail = bits[8 * zeros:]
            out.write(f"{lead}[{inner}  ")
            out.write("0.0" + sep, zeros - (not tail))  # "0.0" is repr(+0.0)
            if not tail:
                out.write("0.0")
            elif first is not None and first.startswith(tail):
                if text is None:  # the first tail is formatted by now
                    out.flush()
                    text = sep.join(parts)
                    ends = list(itertools.accumulate(len(item) + len(sep)
                                                     for item in text.split(sep)))
                out.write(text[:ends[len(tail) // 8 - 1] - len(sep)])
            elif first is None:
                first, parts = tail, []
                out.floats(row[zeros:], sep, parts)
            else:
                out.floats(row[zeros:], sep)
            out.write(inner + "]")
        lead = "," + inner
    out.write("[]" if lead == "[" + inner else newline + "]")  # no rows


def _csv_sibling(path: str) -> str:
    return os.path.splitext(path)[0] + ".csv"


def _write_report(path: str, doc: dict, csv: str | None = None) -> None:
    """Write doc as JSON to path and, if given, csv to the sibling path ending in .csv."""
    try:
        _write_json(path, doc)
        if csv is not None:
            with open(_csv_sibling(path), "w", encoding="utf-8") as fh:
                fh.write(csv)
    except OSError as exc:
        raise ValidationError(f"cannot write {exc.filename or path}: {exc.strerror}") from exc


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _load_weights(doc: dict, spec: ChainSpec) -> LipschitzWeights:
    if "weights" in doc:
        w = LipschitzWeights.from_array(doc["weights"])
        if len(w) != spec.n:
            raise ValidationError(f"weights length {len(w)} does not match chain length {spec.n}")
        return w
    return LipschitzWeights.ones(spec.n)


def _load_function(doc: dict, spec: ChainSpec) -> TabularFunction | AdditiveFunction:
    """The function of a verification input: a flat value table over the joint
    space, or a named additive function, which is never tabulated."""
    if "function" not in doc:
        raise ValidationError('verification input needs a "function" field')
    f = doc["function"]
    if isinstance(f, list):
        try:
            values = np.asarray(f, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"function table must hold numbers: {exc}") from exc
        if values.ndim != 1:
            raise ValidationError(f"function table must be a flat list, got shape {values.shape}")
        if values.size != spec.joint_size():
            raise ValidationError(f"function table has {values.size} entries, "
                                  f"joint space has {size_text(spec.joint_size())}")
        if not np.isfinite(values).all():
            raise ValidationError("function table must contain only finite values")
        return TabularFunction(values)
    states = np.arange(max(spec.coord_sizes))
    if isinstance(f, dict) and f.get("name") == "indicator_count":
        value = json_int(f.get("value", 1), "indicator_count value")
        return _same_at_every_coordinate(spec, (states == value).astype(float))
    if isinstance(f, dict) and f.get("name") == "coordinate_sum":
        return _same_at_every_coordinate(spec, states.astype(float))
    raise ValidationError(
        'function must be a flat value table or {"name": "indicator_count"|"coordinate_sum", ...}'
    )


def _same_at_every_coordinate(spec: ChainSpec, g: np.ndarray) -> AdditiveFunction:
    """f(x) = sum_i g[x_i]: one row, repeated as a read-only view, so O(S) memory."""
    return AdditiveFunction(np.broadcast_to(g, (spec.n, g.size)))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_certify(args) -> int:
    doc = _read_json(args.input)
    spec = chain_from_dict(doc)
    weights = _load_weights(doc, spec)
    del doc  # at large n the parsed input is most of what certify would hold
    report = certify(spec, weights, args.method, eps=args.eps, convention=args.convention)
    _write_report(args.output, {"meta": _meta(args), "report": report.document()},
                  report.tail_curve_csv())
    print(f"certified sigma2_{report.convention} = {report.sigma2_selected!r} "
          f"(method {report.method}); wrote {args.output}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    doc = _read_json(args.input)
    spec = chain_from_dict(doc)
    f = _load_function(doc, spec)
    if args.certificate:
        sigma2, weights = _certificate_sigma2(args.certificate, spec, args.convention)
    else:
        sigma2, weights = None, _load_weights(doc, spec)
    if weights is not None:
        # a certificate for weights the function exceeds, the default unit
        # weights included, bounds nothing. Only a flat table is scanned
        osc = local_oscillation_vector(f, spec)
        over = np.flatnonzero(osc > weights.c)
        if over.size:
            i = int(over[0])
            raise ValidationError(f"function oscillation {float(osc[i])!r} at coordinate {i} "
                                  f"exceeds its weight {float(weights.c[i])!r}")
    if sigma2 is None:
        sigma2 = certify(spec, weights, args.method, eps=args.eps,
                         convention=args.convention).sigma2_selected
    est = empirical_tail(spec, f, sigma2, replicates=args.replicates, seed=args.seed)
    _write_tail(args.output, args, est)
    bad = est.violations()
    if bad:
        worst = max(bad, key=lambda i: est.empirical[i] - est.bound[i])
        t, emp, bound, se = (float(a[worst]) for a in (est.t_grid, est.empirical, est.bound,
                                                        est.standard_errors))
        print(f"VIOLATION: empirical tail exceeds bound + 2 SE at t = {t!r} "
              f"({emp!r} > {bound!r} + 2*{se!r})")
        return EXIT_VIOLATION
    print(f"verified: no tail violation at any of {est.t_grid.size} grid points; "
          f"wrote {args.output}")
    return EXIT_OK


def _certificate_sigma2(path: str, spec: ChainSpec,
                        convention: str) -> tuple[float, LipschitzWeights | None]:
    """The sigma2 of a certificate, checked against the chain it is used on, and
    its weights, if it holds any.

    A certificate that holds weights must hold one per coordinate of spec. One
    that also names its method must be, bit for bit, what certify gives for
    spec, those weights and its eps. A bare sigma2 is a direct claim about the
    function, which only the tail check can falsify.
    """
    cert = _read_json(path)
    report = cert.get("report", cert) if isinstance(cert, dict) else None
    key = f"sigma2_{convention}"
    if not isinstance(report, dict) or key not in report:
        raise ValidationError(f"certificate has no {key} field")
    value = report[key]
    if type(value) not in (int, float):  # a bool or a numeric string is no sigma2
        raise ValidationError(f"certificate {key} must be a number, got {value!r}")
    try:
        sigma2 = float(value)
    except OverflowError as exc:
        raise ValidationError(f"certificate {key} = {value} is beyond the float range") from exc
    if "weights" not in report:
        return sigma2, None
    try:
        weights = _load_weights(report, spec)
    except ValidationError as exc:
        raise ValidationError(f"certificate {exc}") from exc
    if "method" in report:
        details = report.get("details", {})
        eps = details.get("eps") if isinstance(details, dict) else None
        if eps is not None and type(eps) not in (int, float):
            raise ValidationError(f"certificate eps must be a number, got {eps!r}")
        try:
            rebuilt = certify(spec, weights, report["method"], eps=eps, convention=convention)
        except NoMixError as exc:
            raise ValidationError(f"certificate was built for another chain: {exc}") from exc
        if getattr(rebuilt, key).hex() != sigma2.hex():
            raise ValidationError(f"certificate was built for another chain: its {key} is "
                                  f"{sigma2!r}, this chain's is {getattr(rebuilt, key)!r}")
    return sigma2, weights


def _write_tail(path: str, args, est) -> None:
    """The tail report of verify and demo, and its CSV."""
    _write_report(path, {"meta": _meta(args), "convention": args.convention,
                         "caveats": [CONVENTION_CAVEAT], "tail": est.to_dict()}, est.to_csv())


def _cmd_coupling(args) -> int:
    doc = _read_json(args.input)
    try:
        p = Distribution.from_array(doc["p"], where="p")
        q = Distribution.from_array(doc["q"], where="q")
    except KeyError as exc:
        raise ValidationError(f'coupling input needs "p" and "q": {exc}') from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed coupling document: {exc}") from exc
    table = goldstein_coupling(p, q)
    tv = tv_distance(p, q)
    out = {
        "meta": _meta(args),
        "coupling": table.to_dict(),
        "tv_distance": tv,
        "off_diagonal_mass": table.off_diagonal_mass(),
        "max_marginal_error": float(
            max(np.abs(table.row_marginal() - p.probs).max(),
                np.abs(table.col_marginal() - q.probs).max())
        ),
    }
    _write_report(args.output, out)
    print(f"coupling off-diagonal mass {table.off_diagonal_mass()!r} vs TV {tv!r}; "
          f"wrote {args.output}")
    return EXIT_OK


def _cmd_mix(args) -> int:
    spec = chain_from_dict(_read_json(args.input))
    tau = mixing_time(spec, args.eps)
    out = {"meta": _meta(args), "eps": args.eps, "tau": tau, "no_mix": tau is None}
    _write_report(args.output, out)
    print("no-mix" if tau is None else f"tau({args.eps}) = {tau}")
    return EXIT_OK


def _cmd_gamma(args) -> int:
    doc = _read_json(args.input)
    try:
        if args.method == "contractive" and "thetas" in doc:
            g = gamma_contractive(doc["thetas"])
        elif args.method == "ergodic" and "n_blocks" in doc:
            if args.eps is None:
                raise ValidationError("ergodic gamma requires --eps")
            g = gamma_ergodic(json_int(doc["n_blocks"], "n_blocks"), args.eps)
        else:
            g, _ = build_gamma(chain_from_dict(doc), args.method, args.eps)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed gamma document: {exc}") from exc
    out = {"meta": _meta(args), "gamma": g.document()}
    _write_report(args.output, out)
    print(f"gamma ({g.provenance}) of size {g.n}; wrote {args.output}")
    return EXIT_OK


def _rl_metric(args, mdp):
    if args.metric == "mixing":
        return MixingTimeMetric(mdp, args.eps)
    return HammingMetric()


def _policy_cap(args) -> int:
    return DEFAULT_POLICY_CAP if args.cap is None else args.cap


def _certificate_key(method: str, mdp, pi, theta: float, tau: int | None):
    """What a policy's certificate depends on beyond the shared stage caps: the
    generator of its Gamma. One coordinate gives every policy the same 1x1
    certificate; a tau of None under ergodic makes certify raise NoMixError."""
    if mdp.horizon == 1:
        return None
    if method == "contractive":
        return theta  # thetas = [theta] * (H - 1)
    if method == "ergodic":
        return tau  # hence n_blocks and the block weights
    return mdp.kernel_rows[np.arange(mdp.n_states), pi.actions].tobytes()


def _rl_report(args, mdp):
    """The rl-bound report and the policy class it was built over."""
    pc = enumerate_policies(mdp.n_states, mdp.n_actions, metric=_rl_metric(args, mdp),
                            cap=_policy_cap(args))
    weights = LipschitzWeights(mdp.stage_caps)
    # the induced chain is built, and certified, once per distinct generator
    thetas, class_taus = mdp.class_table(pc.policies, args.eps)
    values = mdp.class_values(pc.policies).tolist()
    reports = {}
    per_policy = []
    sigma2_max = 0.0
    taus = []
    for pi, theta, tau, value in zip(pc.policies, thetas.tolist(), class_taus, values):
        key = _certificate_key(args.method, mdp, pi, theta, tau)
        if key not in reports:
            reports[key] = certify(induced_chain(mdp, pi), weights, args.method, eps=args.eps,
                                   convention=args.convention)
        report = reports[key]
        taus.append(mdp.horizon if tau is None else tau)
        sigma2_max = max(sigma2_max, getattr(report, f"sigma2_{args.convention}"))
        per_policy.append({
            "policy": policy_to_dict(pi),
            "sigma2_exact": report.sigma2_exact,
            "sigma2_opnorm": report.sigma2_opnorm,
            "sigma2_paper": report.sigma2_paper,
            "tau": tau,
            "expected_value": value,
        })
    tau_mix = max(taus)
    class_size = len(pc)
    sa = mdp.n_states * mdp.n_actions
    bounds = {
        "sigma2_max": sigma2_max,
        "maximal": maximal_bound(sigma2_max, class_size),
        "dudley": dudley_bound(pc, scale=args.scale),
        "finite_state_max_mix": finite_state_bound(mdp.horizon, tau_mix, mdp.n_states,
                                                   mdp.n_actions, "max_mix"),
        "finite_state_union": finite_state_bound(mdp.horizon, tau_mix, mdp.n_states,
                                                 mdp.n_actions, "union"),
        "tau_mix": tau_mix,
        "class_size": class_size,
        "state_action_count": sa,
        "log_count_mismatch": class_size != sa,
    }
    caveats = [CONVENTION_CAVEAT, POLICY_COUNT_CAVEAT]
    if any(t == mdp.horizon for t in taus):
        caveats.append("some policies never mix within the horizon; tau = H used as surrogate")
    return {"meta": _meta(args), "metric": args.metric, "per_policy": per_policy,
            "bounds": bounds, "caveats": caveats}, pc


def _cmd_rl_bound(args) -> int:
    mdp = mdp_from_dict(_read_json(args.input))
    out, _ = _rl_report(args, mdp)
    _write_report(args.output, out)
    b = out["bounds"]
    print(f"|Pi| = {b['class_size']}, sigma2_max = {b['sigma2_max']!r}, "
          f"maximal = {b['maximal']!r}, dudley = {b['dudley']!r}; wrote {args.output}")
    return EXIT_OK


def _cmd_rl_verify(args) -> int:
    mdp = mdp_from_dict(_read_json(args.input))
    out, pc = _rl_report(args, mdp)
    est = empirical_sup_value(mdp, pc, replicates=args.replicates, seed=args.seed,
                              cap=_policy_cap(args))
    out["empirical_sup"] = est.to_dict()
    _write_report(args.output, out)
    bound = out["bounds"]["maximal"]
    slack = bound + 2.0 * est.standard_error - est.estimate
    if slack < 0:
        print(f"VIOLATION: empirical E sup = {est.estimate!r} exceeds maximal bound "
              f"{bound!r} + 2 SE")
        return EXIT_VIOLATION
    print(f"empirical E sup = {est.estimate!r} <= maximal bound {bound!r} (+2 SE slack "
          f"{slack!r}); wrote {args.output}")
    return EXIT_OK


def _cmd_demo(args) -> int:
    """End-to-end worked example on the two-state demo chain."""
    try:
        os.makedirs(args.output, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot make report directory {args.output}: "
                              f"{exc.strerror}") from exc
    demo_doc = {"kernel": [[0.9, 0.1], [0.2, 0.8]], "n": 20, "initial": [0.5, 0.5]}
    spec = chain_from_dict(demo_doc)
    weights = LipschitzWeights.ones(spec.n)

    cert = certify(spec, weights, "contractive", convention=args.convention)
    _write_report(os.path.join(args.output, "demo_certificate.json"),
                  {"meta": _meta(args), "chain": demo_doc, "report": cert.document()},
                  cert.tail_curve_csv())

    ergodic = certify(spec, weights, "ergodic", eps=0.25, convention=args.convention)
    _write_report(os.path.join(args.output, "demo_certificate_ergodic.json"),
                  {"meta": _meta(args), "report": ergodic.document()})

    f = _load_function({"function": {"name": "indicator_count", "value": 1}}, spec)
    est = empirical_tail(spec, f, cert.sigma2_selected, replicates=args.replicates,
                         seed=args.seed)
    _write_tail(os.path.join(args.output, "demo_tail.json"), args, est)

    tau = mixing_time(spec, 0.25)
    print(f"demo chain: n = {spec.n}, theta = 0.7, tau(0.25) = {tau}")
    print(f"sigma2_exact = {cert.sigma2_exact!r}, sigma2_opnorm = {cert.sigma2_opnorm!r}, "
          f"sigma2_paper = {cert.sigma2_paper!r}")
    print(f"ergodic-block sigma2_{args.convention} = {ergodic.sigma2_selected!r}")
    if est.violations():
        print("VIOLATION: empirical tail exceeded the certified bound")
        return EXIT_VIOLATION
    print(f"tail verification: no violation at any grid point; reports in {args.output}/")
    return EXIT_OK


# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    """argparse type of every --cap: a cap below 1 admits nothing and is malformed."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _parent(flag: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser that declares flag, for the subcommands that share it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(flag, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chainconc",
                     description="Concentration certificates for Markov chains, verified.")
    parser.add_argument("--version", action="version", version=f"chainconc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, handler, default_output, *parents):
        p = sub.add_parser(name, help=help, parents=parents)
        p.add_argument("--output", default=default_output, help="output report path")
        p.set_defaults(func=handler)
        return p

    inputs = _parent("--input", required=True)
    method = _parent("--method", choices=["contractive", "ergodic", "brute"],
                     default="contractive")
    convention = _parent("--convention", choices=CONVENTIONS, default="opnorm")
    eps = _parent("--eps", type=float, default=None, help="mixing level for the ergodic method")
    seeded = _parent("--seed", type=int, default=42)
    seeded.add_argument("--replicates", type=int, default=10**5)
    rl = _parent("--metric", choices=["hamming", "mixing"], default="hamming")
    rl.add_argument("--eps", type=float, default=0.25)
    rl.add_argument("--scale", type=float, default=1.0, help="policy-metric scale for Dudley")
    rl.add_argument("--cap", type=_positive_int, default=None,
                    help=f"cap on the policy-class size A^S (default {DEFAULT_POLICY_CAP})")

    command("certify", "chain + weights -> concentration certificate", _cmd_certify,
            "certificate.json", inputs, method, convention, eps)
    p = command("verify", "chain + function + certificate -> empirical tail check", _cmd_verify,
                "tail.json", inputs, method, convention, eps, seeded)
    p.add_argument("--certificate", default=None, help="certify output to check against")
    p.add_argument("--cap", type=_positive_int, default=None,
                   help="accepted for compatibility: named functions are additive and no "
                        "longer tabulated, so nothing reads it")
    command("coupling", "two distributions -> maximal coupling + TV check", _cmd_coupling,
            "coupling.json", inputs)
    p = command("mix", "chain + eps -> mixing time", _cmd_mix, "mix.json", inputs)
    p.add_argument("--eps", type=float, required=True)
    command("gamma", "method + parameters -> Gamma matrix", _cmd_gamma, "gamma.json",
            inputs, method, eps)
    command("rl-bound", "MDP -> per-policy certificates + sup bounds", _cmd_rl_bound,
            "rl_bounds.json", inputs, method, convention, rl)
    command("rl-verify", "MDP -> empirical E sup vs certified bounds", _cmd_rl_verify,
            "rl_verify.json", inputs, method, convention, rl, seeded)
    p = command("demo", "built-in two-state worked example, end to end", _cmd_demo,
                "chainconc-demo", convention, seeded)
    p.add_argument("--cap", type=_positive_int, default=None,
                   help="accepted for compatibility: the demo function is additive and no "
                        "longer tabulated, so nothing reads it")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # normalize method aliases: the flag uses "brute", the library "brute_force"
    if getattr(args, "method", None) == "brute":
        args.method = "brute_force"
    try:
        # certify and verify write a CSV beside the report: refuse a report
        # that the CSV would overwrite before any work is done
        if args.command in ("certify", "verify") and _csv_sibling(args.output) == args.output:
            raise ValidationError(f"output {args.output} would be overwritten by its own CSV; "
                                  "name the report with another extension")
        return args.func(args)
    except (EnumerationCapError, NoMixError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ChainconcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
