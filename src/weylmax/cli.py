"""Command-line front door.

Subcommands: weyl-table, verify-deligne, good-set, solution-eval,
decompose, build-xn, measure-xn, ratio-experiment, fit, lattice-count,
selftest. Exit codes: 0 success, 1 stdout closed by its reader (a
broken pipe, as under `| head`), 2 input error, 3 resource guard,
4 invariant violation.

Every output starts with the resolved run configuration and the package
version so results are reproducible from the artifact alone. Structured
single results are JSON; tables and ladders are CSV with a JSON header
comment. Numeric CSV fields carry 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import warnings

import numpy as np

from . import __version__
from . import datum as datum_mod
from . import decomp, divset, experiment, numtheory, poly, weyl
from .errors import InputError, InvariantError, ResourceError

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INVARIANT = 4

DEFAULTS = experiment.ExperimentConfig()  # option defaults shared with the library


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        raise InputError(f"{path}: cannot read: {exc}") from exc


def _load_poly(args) -> poly.IntPolynomial:
    if getattr(args, "poly_file", None):
        p = poly.parse_polynomial(_read_text(args.poly_file))
    elif getattr(args, "poly", None):
        p = poly.parse_polynomial(args.poly)
    else:
        raise InputError("a polynomial is required (--poly or --poly-file)")
    want_d = getattr(args, "d", None)
    if want_d is not None and want_d != p.dim:
        raise InputError(f"--d {want_d} does not match polynomial dimension {p.dim}")
    want_k = getattr(args, "k", None)
    if want_k is not None and want_k != p.degree():
        raise InputError(f"--k {want_k} does not match polynomial degree {p.degree()}")
    return p


def _config(args, p: poly.IntPolynomial | None = None) -> dict:
    cfg = {"version": __version__}
    for key in ("q", "n", "s", "c", "rho", "seed", "budget", "samples", "method"):
        if hasattr(args, key) and getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    if p is not None:
        cfg["poly"] = json.loads(poly.to_json(p))
        cfg["d"] = p.dim
        cfg["k"] = p.degree()
    return cfg


def _emit(text, out_path: str | None) -> None:
    """Write ``text``, a string or an iterable of string pieces, to
    ``out_path`` or to stdout, one piece at a time."""
    pieces = [text] if isinstance(text, str) else text
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise InputError(f"{out_path}: cannot write: {exc}") from exc
    else:
        last = ""
        for piece in pieces:
            sys.stdout.write(piece)
            last = piece or last
        if not last.endswith("\n"):
            sys.stdout.write("\n")


def _json_out(obj: dict, out_path: str | None) -> None:
    _emit(json.dumps(obj, sort_keys=True, default=float), out_path)


CSV_BLOCK = 1 << 15  # table rows per block between a table and its CSV text


def _int_csv_blocks(columns: list[str], widths: list[int], blocks, head: str = ""):
    """``head`` and the header ``columns``, then the text ``csv.writer``
    writes for each block of rows of non-negative integers, one piece per
    block. Every value must have at most the ``widths`` digits of its
    column, at most 19; a wider width gives the same text.

    Each field is rendered as fixed-width ASCII digits into one byte
    buffer, reused by every block and grown only for a longer block, and
    the leading-zero pad bytes are masked out, so no Python object is
    made per field. The digits are peeled last first, in the narrowest
    unsigned type that holds 10^max(widths) - 1, with one
    ``floor_divide`` by the scalar 10 each (numpy's ``divmod`` and
    ``remainder`` by a scalar are several times slower).
    """
    yield head + ",".join(columns) + "\r\n"
    ends = np.cumsum([w + 1 for w in widths], dtype=np.int64) - 1
    kind = np.min_scalar_type(10 ** max(widths) - 1)
    out = np.empty(0)
    for block in blocks:
        if len(block) > len(out):
            out = keep = bufs = o = kept = val = quo = dig = None  # drop the old buffers and their views first
            # digits of every field, a "," after each field but the last, then \r\n
            out = np.empty((len(block), sum(widths) + len(widths) + 1), dtype=np.uint8)
            keep = np.ones(out.shape, dtype=bool)
            bufs = np.empty((3, len(block)), dtype=kind)  # value, quotient and digit: no temporary per digit
            out[:, ends] = ord(",")
            out[:, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
        o, kept = out[: len(block)], keep[: len(block)]
        val, quo, dig = bufs[:, : len(block)]
        pos = 0
        for col, width in zip(block.T, widths):
            np.copyto(val, col, casting="unsafe")
            for k in range(pos + width - 1, pos - 1, -1):  # the last digit first
                if k < pos + width - 1:
                    np.greater(val, 0, out=kept[:, k])
                np.floor_divide(val, 10, out=quo)
                np.multiply(quo, 10, out=dig)
                np.subtract(val, dig, out=dig)
                np.add(dig, ord("0"), out=o[:, k], casting="unsafe")
                val, quo = quo, val
            pos += width + 1
        yield o[kept].tobytes().decode("ascii")


def _parse_list(text: str, name: str, kind=int) -> tuple:
    """The comma-separated values of an option, each converted by kind."""
    out = []
    for v in text.split(","):
        try:
            out.append(kind(v))
        except ValueError:
            raise InputError(f"{name} needs comma-separated {kind.__name__} values, "
                             f"got {v!r} in {text!r}") from None
    return tuple(out)


def _point(args, p: poly.IntPolynomial):
    """The datum at --n, the point b/q + delta of --q, --b, --delta and
    the run configuration with the resolved point."""
    f = datum_mod.datum_coefficients(args.n, p.dim)
    b = _parse_list(args.b, "--b")
    delta = _parse_list(args.delta, "--delta", float) if args.delta else (0.0,) * p.dim
    pt = datum_mod.RationalPoint(b=b, q=args.q, delta=delta)
    return f, pt, {**_config(args, p), "b": list(pt.b), "delta": list(pt.delta)}


def cmd_weyl_table(args) -> int:
    p = _load_poly(args)
    values = weyl.weyl_table(p, args.q, method=args.method or "dft").values
    _emit(_weyl_csv_blocks(values, "# " + json.dumps(_config(args, p), sort_keys=True) + "\n"), args.out)
    return EXIT_OK


def _weyl_csv_blocks(values: np.ndarray, head: str):
    """``head`` and the header, then the text ``csv.writer`` writes for
    the rows ``b_0 .. b_{d-1}, re, im, modulus`` of the entries of
    ``values`` in C order, one piece per CSV_BLOCK entries."""
    yield head + ",".join([f"b{i}" for i in range(values.ndim)] + ["re", "im", "modulus"]) + "\r\n"
    index = np.ndindex(*values.shape)
    flat = values.reshape(-1)
    for lo in range(0, flat.size, CSV_BLOCK):  # the block first: zip stops without taking an index
        yield "".join(f"{','.join(map(str, b))},{v.real:.17g},{v.imag:.17g},{abs(v):.17g}\r\n"
                      for v, b in zip(flat[lo : lo + CSV_BLOCK].tolist(), index))


def cmd_verify_deligne(args) -> int:
    p = _load_poly(args)
    table = weyl.weyl_table(p, args.q)
    report = weyl.deligne_check(table, p.degree())
    _json_out({
        "config": _config(args, p), "q": args.q, "d": p.dim, "k": p.degree(),
        "max_modulus": report.max_modulus, "bound": report.bound, "ok": report.ok,
        "classical_bound": report.classical_bound, "classical_ok": report.classical_ok,
    }, args.out)
    return EXIT_OK


def cmd_good_set(args) -> int:
    p = _load_poly(args)
    gs = weyl.good_set_for(p, args.q, args.c)
    obj = {
        "config": _config(args, p), "q": args.q, "d": p.dim, "k": p.degree(),
        "c": args.c, "threshold": gs.threshold, "count": int(np.count_nonzero(gs.mask)),
        "density": gs.density,
    }
    if args.out:
        head = "# " + json.dumps(_config(args, p), sort_keys=True) + "\n"
        flat = gs.mask.reshape(-1)
        codes = (lo + np.flatnonzero(flat[lo : lo + CSV_BLOCK]) for lo in range(0, flat.size, CSV_BLOCK))
        # C-order positions ascend in lex order: each window decodes to the next rows of the table
        blocks = (np.array(np.unravel_index(code, gs.mask.shape)).T for code in codes if code.size)
        widths = [len(str(args.q))] * p.dim  # every residue is below q
        _emit(_int_csv_blocks([f"b{i}" for i in range(p.dim)], widths, blocks, head), args.out)
    _json_out(obj, None)
    return EXIT_OK


def cmd_solution_eval(args) -> int:
    p = _load_poly(args)
    f, pt, cfg = _point(args, p)
    u = datum_mod.evaluate_solution(p, f, pt)
    _json_out({
        "config": cfg, "re": u.real, "im": u.imag, "modulus": abs(u),
    }, args.out)
    return EXIT_OK


def cmd_decompose(args) -> int:
    p = _load_poly(args)
    f, pt, cfg = _point(args, p)
    table = weyl.weyl_table(p, args.q)
    split = decomp.main_error_split(p, f, pt, table)
    _json_out({
        "config": cfg,
        "M_re": split.main.real, "M_im": split.main.imag,
        "E_re": split.error.real, "E_im": split.error.imag,
        "ratio": split.ratio, "Zhat0": abs(split.zhat0),
    }, args.out)
    return EXIT_OK


def cmd_build_xn(args) -> int:
    p = _load_poly(args)
    x = divset.build_divergence_set(p, args.n, c=args.c, rho=args.rho)
    head = "# " + json.dumps({**_config(args, p), "Q": x.Q}, sort_keys=True) + "\n"
    # every residue is below its prime, so the largest prime's width fits every column
    widths = [len(str(x.primes[-1]))] * (1 + p.dim)
    blocks = x.ball_blocks(CSV_BLOCK)
    _emit(_int_csv_blocks(["q"] + [f"b{i}" for i in range(p.dim)], widths, blocks, head), args.out)
    return EXIT_OK


def _read_xn(path: str) -> divset.DivergenceSet:
    """The divergence set stored by build-xn, read in one pass over the
    file: the JSON header line, the lines up to the column header, which
    must be build-xn's q,b0..b{d-1}, then the body straight from the same
    handle to ``from_balls``, CSV_BLOCK rows at a time (_body_blocks).
    The header's n, d, Q and k (when present) must be JSON integers and
    its rho and c JSON numbers, none of them a boolean. After the checks
    of ``from_balls``, a set with balls must have the
    header Q = band_start(n, d) and only band primes
    (divset.band_primes)."""
    try:
        with open(path) as fh:
            head = fh.readline().removesuffix("\n")
            if not head.startswith("# "):
                raise InputError(f"{path}: missing JSON header comment")
            # the column header is the first line that is neither blank nor a comment
            columns = None
            for line in fh:
                if line.strip() and not line.startswith("#"):
                    columns = [name.strip() for name in line.split(",")]
                    break
            cfg = json.loads(head[2:])
            for key, kind in (("n", int), ("d", int), ("Q", int), ("k", int), ("rho", float), ("c", float)):
                if key == "k" and key not in cfg:
                    continue
                if isinstance(cfg[key], bool) or not isinstance(cfg[key], (int, kind)):
                    raise InputError(f"{path}: header {key} must be a JSON {'integer' if kind is int else 'number'}, "
                                     f"got {cfg[key]!r}")
            d = cfg["d"]
            p = poly.parse_polynomial(json.dumps(cfg["poly"])) if "poly" in cfg else None
            params = dict(N=cfg["n"], d=d, rho=float(cfg["rho"]), c=float(cfg["c"]), Q=cfg["Q"])
            k = cfg.get("k")
            blocks = []
            if columns is not None:
                # the length first, so a huge d builds no list of names
                if len(columns) != 1 + d or columns != ["q"] + [f"b{i}" for i in range(d)]:
                    raise InputError(f"{path}: d = {d} needs the column header q,b0..b{d - 1}, "
                                     f"got {','.join(columns)}")
                blocks = _body_blocks(fh, path, d)
            x = divset.from_balls(balls=blocks, polynomial=p, **params)
    except InputError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: cannot read: {exc}") from exc
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise InputError(f"{path}: malformed divergence-set file: {exc!r}") from exc
    if x.primes:  # the band of a set without balls constrains nothing
        Q = numtheory.band_start(x.N, d)
        if x.Q != Q:
            raise InputError(f"{path}: header Q = {x.Q} is not the band start {Q} of N = {x.N}, d = {d}")
        outside = sorted(set(x.primes) - set(divset.band_primes(x.primes, Q, k)))
        if outside:
            raise InputError(f"{path}: ball primes {outside} lie outside the band [{Q}, {2 * Q}) or divide k = {k}")
    return x


def _body_blocks(fh, path: str, d: int):
    """The body of a build-xn file from the open handle ``fh``, as (m, 1 +
    d) int64 blocks of at most CSV_BLOCK rows, one ``np.loadtxt`` call
    each; each call goes on where the last one stopped. A parse error
    names the row counted from the start of the body, as one call over
    the whole body would."""
    done = 0
    while True:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # an empty block; blank lines not counted
                block = np.loadtxt(fh, dtype=np.int64, delimiter=",", comments="#", ndmin=2,
                                   max_rows=CSV_BLOCK)
        except UnicodeDecodeError:
            raise
        except ValueError as exc:
            text = re.sub(r"at row (\d+)", lambda m: f"at row {int(m[1]) + done}", str(exc))
            raise InputError(f"{path}: malformed divergence-set file: {ValueError(text)!r}") from exc
        if not block.size:
            return
        if block.shape[1] != 1 + d:
            if done:  # np.loadtxt found the change inside a block, so it comes with this one
                raise InputError(f"{path}: malformed divergence-set file: body row {done + 1} has "
                                 f"{block.shape[1]} fields, the rows before it {1 + d}")
            raise InputError(f"{path}: rows have {block.shape[1]} fields, the column header has {1 + d}")
        yield block
        done += len(block)
        if len(block) < CSV_BLOCK:
            return


def cmd_measure_xn(args) -> int:
    x = _read_xn(args.infile)
    res = divset.measure(x, method=args.method, samples=args.samples, seed=args.seed)
    _json_out({
        "config": {"version": __version__, "in": args.infile, "method": res.method,
                   "samples": args.samples, "seed": args.seed},
        "estimate": res.estimate, "stderr": res.error,
        "upper_bound": res.upper_bound, "lower_bound": res.lower_bound,
        "J": x.ball_count, "overlap_pairs": res.overlap_pairs,
        "low_samples": res.low_samples,
    }, args.out)
    return EXIT_OK


def cmd_ratio_experiment(args) -> int:
    p = _load_poly(args)
    ladder = list(_parse_list(args.n_ladder, "--n-ladder"))
    cfg = experiment.ExperimentConfig(
        c=args.c, rho=args.rho, seed=args.seed,
        sample_budget=args.budget, mc_samples=args.samples,
    )
    rows = experiment.ratio_experiment(p, args.s, ladder, cfg)
    header = _config(args, p)
    header["ladder"] = ladder
    header["experiment_config"] = cfg._asdict()
    _emit(experiment.rows_to_csv(rows, header), args.out)
    return EXIT_OK


def cmd_fit(args) -> int:
    rows = experiment.rows_from_csv(_read_text(args.infile))
    res = experiment.fit_exponent(rows)
    _json_out({
        "config": {"version": __version__, "in": args.infile},
        "slope": res.slope, "intercept": res.intercept, "residual": res.residual,
        "n_points": res.n_points, "log_corrected_slope": res.log_corrected_slope,
        "set_aside": [{"N": n, "fail_reason": reason} for n, reason in res.set_aside],
    }, args.out)
    return EXIT_OK


def cmd_lattice_count(args) -> int:
    count = numtheory.lattice_pair_count(args.q, args.qp, args.bound)
    bound = 2 * args.bound
    if bound == int(bound):
        bound = int(bound)
    _json_out({"config": {**_config(args), "qp": args.qp, "bound": args.bound},
               "count": count, "bound": bound, "ok": count <= 2 * args.bound}, args.out)
    return EXIT_OK


def _selftest_checks():
    sqrt5 = math.sqrt(5.0)
    p_sq = poly.family_diagonal(1, 2)
    p_cube = poly.family_diagonal(1, 3)

    def primes_small():
        return numtheory.primes_in_band(10, 21) == (11, 13, 17, 19)

    def poly_eval_mod():
        return numtheory.eval_poly_mod(p_sq, (7,), 5) == 4

    def lattice_small():
        return numtheory.lattice_pair_count(3, 5, 2) == 4

    def laplacian_families():
        pl = poly.family_power_laplacian(2, 2)
        return pl.terms == {(4, 0): 1, (2, 2): 2, (0, 4): 1}

    def bump_values():
        return datum_mod.bump(0.75) == 1.0 and datum_mod.bump(0.1) == 0.0 and abs(datum_mod.bump(0.375) - 0.5) < 1e-15

    def gauss_q5():
        s = weyl.weyl_sum_direct(p_sq, 5, (0,))
        return abs(s - sqrt5) < 1e-12

    def cubic_q7_table():
        t = weyl.weyl_table(p_cube, 7)
        direct = [weyl.weyl_sum_direct(p_cube, 7, (b,)) for b in range(7)]
        return max(abs(t.values[b] - direct[b]) for b in range(7)) < 1e-9 * math.sqrt(7)

    def parseval_small():
        return weyl.parseval_defect(weyl.weyl_table(p_sq, 5)) < 1e-12

    def good_set_q13():
        gs = weyl.good_set(weyl.weyl_table(p_sq, 13), 0.5)
        return gs.density == 1.0

    def laplacian_constant():
        g = np.ones((7, 7))
        return np.abs(decomp.discrete_laplacian(g)).max() == 0.0

    def sbp_random():
        rng = np.random.default_rng(0)
        g = rng.normal(size=17) + 1j * rng.normal(size=17)
        h = rng.normal(size=17) + 1j * rng.normal(size=17)
        return decomp.sbp_check(g, h) < 1e-10

    def fold_conserves():
        f = datum_mod.datum_coefficients(64, 1)
        z = decomp.fold(f, 5, (0.0,))
        return abs(z.values.sum().real - f.axis_psi.sum()) < 1e-9

    def split_reconstructs():
        f = datum_mod.datum_coefficients(256, 1)
        pt = datum_mod.RationalPoint(b=(3,), q=17, delta=(0.0,))
        table = weyl.weyl_table(p_sq, 17)
        split = decomp.main_error_split(p_sq, f, pt, table)
        u = datum_mod.evaluate_solution(p_sq, f, pt)
        return abs(split.main + split.error - u) < 1e-9 * abs(u)

    def measure_single_ball():
        x = divset.from_balls(N=1024, d=1, rho=1 / 32, c=0.5, Q=32, balls=[(37, (5,))])
        res = divset.measure(x)
        return abs(res.estimate - 2 * (1 / 32) / 1024) < 1e-18

    def fit_powerlaw():
        rows = [
            experiment.ExperimentRow(
                N=n, Q=0, d=1, k=2, s=0.0, J=0, measure=0.0, measure_err=0.0,
                measure_method="", sup_lb=0.0, hs_norm=0.0, ratio=float(n) ** 0.25,
                wall_ms=0.0,
            )
            for n in (1024, 2048, 4096, 8192)
        ]
        res = experiment.fit_exponent(rows)
        return abs(res.slope - 0.25) < 1e-12

    return [
        ("primes-in-band", primes_small),
        ("eval-poly-mod", poly_eval_mod),
        ("lattice-count", lattice_small),
        ("power-laplacian-family", laplacian_families),
        ("bump-profile", bump_values),
        ("gauss-sum-q5", gauss_q5),
        ("cubic-table-two-path", cubic_q7_table),
        ("parseval", parseval_small),
        ("good-set-q13", good_set_q13),
        ("laplacian-constant", laplacian_constant),
        ("summation-by-parts", sbp_random),
        ("fold-conservation", fold_conserves),
        ("split-reconstruction", split_reconstructs),
        ("measure-single-ball", measure_single_ball),
        ("fit-power-law", fit_powerlaw),
    ]


def cmd_selftest(args) -> int:
    print("# " + json.dumps(_config(args), sort_keys=True))
    failures = 0
    for name, check in _selftest_checks():
        try:
            ok = check()
        except Exception as exc:  # noqa: BLE001 -- selftest reports, never raises
            ok = False
            print(f"FAIL {name}: {exc}")
            failures += 1
            continue
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


def _add_poly(sp) -> None:
    sp.add_argument("--poly", help="polynomial JSON")
    sp.add_argument("--poly-file", help="path to polynomial JSON")
    sp.add_argument("--d", type=int, help="expected dimension (validated)")
    sp.add_argument("--k", type=int, help="expected degree (validated)")


def _add_out(sp) -> None:
    sp.add_argument("--out", help="output path (default stdout)")


def _args_weyl_table(sp) -> None:
    _add_poly(sp)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--method", choices=["dft", "direct"])
    _add_out(sp)


def _args_verify_deligne(sp) -> None:
    _add_poly(sp)
    sp.add_argument("--q", type=int, required=True)
    _add_out(sp)


def _args_good_set(sp) -> None:
    _add_poly(sp)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--c", type=float, default=DEFAULTS.c)
    _add_out(sp)


def _args_point(sp) -> None:
    """solution-eval and decompose: a symbol, a scale and a point."""
    _add_poly(sp)
    sp.add_argument("--n", type=int, required=True, help="frequency scale N")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--b", required=True, help="comma-separated residues")
    sp.add_argument("--delta", help="comma-separated perturbation")
    _add_out(sp)


def _args_build_xn(sp) -> None:
    _add_poly(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--c", type=float, default=DEFAULTS.c)
    sp.add_argument("--rho", type=float, default=DEFAULTS.rho)
    _add_out(sp)


def _args_measure_xn(sp) -> None:
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--method", choices=["exact", "montecarlo"])
    sp.add_argument("--samples", type=int, default=DEFAULTS.mc_samples)
    sp.add_argument("--seed", type=int, default=0)
    _add_out(sp)


def _args_ratio_experiment(sp) -> None:
    _add_poly(sp)
    sp.add_argument("--s", type=float, required=True)
    sp.add_argument("--n-ladder", required=True, help="comma-separated ascending scales")
    sp.add_argument("--c", type=float, default=DEFAULTS.c)
    sp.add_argument("--rho", type=float, default=DEFAULTS.rho)
    sp.add_argument("--seed", type=int, default=DEFAULTS.seed)
    sp.add_argument("--budget", type=int, default=DEFAULTS.sample_budget)
    sp.add_argument("--samples", type=int, default=DEFAULTS.mc_samples)
    _add_out(sp)


def _args_fit(sp) -> None:
    sp.add_argument("--in", dest="infile", required=True)
    _add_out(sp)


def _args_lattice_count(sp) -> None:
    sp.add_argument("q", type=int)
    sp.add_argument("qp", type=int)
    sp.add_argument("bound", type=float)
    _add_out(sp)


def _args_selftest(sp) -> None:
    """selftest takes no arguments."""


# name -> (help, adder of the arguments), in help order. The handler of
# a name is cmd_<name with "-" as "_">.
COMMANDS = {
    "weyl-table": ("all S(b) for one prime, per-b CSV", _args_weyl_table),
    "verify-deligne": ("max |S(b)| against the degree bound", _args_verify_deligne),
    "good-set": ("residues with |S(b)| above the threshold", _args_good_set),
    "solution-eval": ("solution at x = b/q + delta, t = 1/q", _args_point),
    "decompose": ("main/error split at a rational point", _args_point),
    "build-xn": ("divergence-set ball list as CSV", _args_build_xn),
    "measure-xn": ("measure a stored divergence set", _args_measure_xn),
    "ratio-experiment": ("full ladder of ratio rows", _args_ratio_experiment),
    "fit": ("exponent fit from a rows CSV", _args_fit),
    "lattice-count": ("pairs near the rational line", _args_lattice_count),
    "selftest": ("run the built-in quick checks", _args_selftest),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser with every subcommand."""
    parser = argparse.ArgumentParser(prog="weylmax", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args) in COMMANDS.items():
        add_args(sub.add_parser(name, help=help_text))
    return parser


PARSER = build_parser()


def dispatch(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    # looked up when called, so a rebound module attribute (a wrapper) runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def main() -> None:
    try:
        code = dispatch()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): point stdout at
        # devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)
