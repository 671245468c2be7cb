"""Built-in reproduction manifest: the published parameter tables as checkable rows.

Each target lists its builds, (curve, construction, levels or pole orders)
over the named curves of curves.CATALOGUE, and the expected [[n, k, d]]_q
rows they give.  build_rows runs construction C and the hermitian CSS
through quantum.level_step, the per-level step of scan_sequence; on an
exactly self-dual flag construction C at level i is the euclidean CSS of
C_i <= C_i^perp.  It adds the two cases a scan does not cover, the trace
and incomplete-trace descents.  Running a target rebuilds every quantum code
from scratch and checks it against its expected row under that row's check
mode:

  "exact"     -- the enumerated distance must equal the listed one (or the
                 recorded true value, when enumeration beats the listed d),
  "bound"     -- the certified lower bound (or enumerated distance) must
                 reach the listed d; a shortfall with no enumeration
                 available is reported as a "bound-gap" failure,
  "dimension" -- only (n, k, q) are compared.

The recomputed GV classification must agree with the row's tag: "dagger"
rows must come out "meets", "ddagger" rows "exceeds", untagged rows must not
classify better than "below".  Two rows carry corrections where exact
arithmetic contradicts the listed table; these pass against the corrected
values and the discrepancy is surfaced as a note.
"""

from dataclasses import dataclass, replace

from .agcodes import CodeSequence, certify_duality, incomplete_trace_search, trace_code
from .codes import OverBudget
from .curves import CATALOGUE, evaluation_set_from_json
from .fields import GF
from .quantum import QuantumParams, css_self_orthogonal, gv_status, level_step

TAG_STATUS = {"dagger": "meets", "ddagger": "exceeds"}


@dataclass(frozen=True)
class ExpectedRow:
    """One listed [[n, k, d]]_q row with its tag and check mode."""

    label: str
    n: int
    k: int
    d: int
    q: int
    tag: str | None  # "dagger" | "ddagger" | None
    check: str  # "exact" | "bound" | "dimension"
    d_true: int | None = None  # enumerated distance when it beats the listed d
    gv_true: str | None = None  # recomputed GV status when it contradicts the tag

    def triple(self):
        return f"[[{self.n},{self.k},{self.d}]]_{self.q}"


@dataclass(frozen=True)
class RowResult:
    row: ExpectedRow
    params: QuantumParams | None  # None: the row could not be built within budget
    gv: str  # recomputed status of the listed triple
    failures: tuple
    notes: tuple

    @property
    def passed(self):
        return not self.failures


@dataclass(frozen=True)
class TargetReport:
    identifier: str
    results: tuple

    @property
    def passed(self):
        return all(r.passed for r in self.results)


def check_row(row, params):
    """Compare one rebuilt quantum code against its expected row."""
    failures, notes = [], []
    if (params.n, params.k, params.q) != (row.n, row.k, row.q):
        failures.append(f"built {params}, expected {row.triple()}")
    if row.check == "exact":
        want = row.d if row.d_true is None else row.d_true
        if params.d_provenance != "exact":
            failures.append("exact distance unavailable within budget")
        elif params.d != want:
            failures.append(f"exact distance {params.d} != {want}")
        elif row.d_true is not None:
            notes.append(f"exact distance {row.d_true} improves on the listed {row.d}")
    elif row.check == "bound":
        if params.d is None:
            failures.append("no distance bound available")
        elif params.d < row.d:
            if params.d_provenance == "exact":
                failures.append(f"exact distance {params.d} < listed {row.d}")
            else:
                failures.append(f"bound-gap: certified bound {params.d} < listed {row.d}")
    elif row.check != "dimension":
        raise ValueError(f"unknown check mode {row.check!r}")

    status, _ = gv_status(row.n, row.k, row.d, row.q)
    expected_status = row.gv_true or TAG_STATUS.get(row.tag)
    if expected_status is None:
        if status in ("meets", "exceeds"):
            failures.append(f"untagged row classifies as {status}")
    elif status != expected_status:
        failures.append(f"GV status {status} != {expected_status}")
    if row.gv_true is not None:
        notes.append(
            f"listed tag claims {TAG_STATUS[row.tag]} but exact arithmetic gives {row.gv_true}"
        )
    return RowResult(row, params, status, tuple(failures), tuple(notes))


# -- builds --------------------------------------------------------------------


def build_rows(builds):
    """The quantum codes of a list of builds, one per level or pole order, in order.

    A build (curve, construction, at) names a curve of curves.CATALOGUE and
    either "C" at levels i, or "hermitian", "trace" (the trace code down to
    the prime field) or "incomplete-trace" (the incomplete-trace descent to
    GF(q~), q~^2 = q) at pole orders m.  A row whose build needs an exact
    distance that is over budget is its OverBudget error instead.
    """
    out = []
    for curve, construction, at in builds:
        ev = evaluation_set_from_json(CATALOGUE[curve])
        if construction in ("trace", "incomplete-trace"):
            out += [_descent(ev, construction, m) for m in at]
        else:
            out += _levels(ev, construction, at)
    return out


def _levels(ev, construction, at):
    """Rows of level_step: C at the levels at, the hermitian CSS at the pole orders at."""
    seq = CodeSequence(ev)
    step = level_step(seq, certify_duality(ev), construction)
    out = []
    for i in at if construction == "C" else [seq.ms.index(m) + 1 for m in at]:
        params = step(i)
        if params is None:
            raise ValueError(f"{ev.curve.tag}: level {i} fails the gate of construction {construction}")
        out.append(params)
    return out


def _descent(ev, construction, m):
    """The euclidean CSS of the trace or incomplete-trace descent of C(mQ)."""
    if construction == "trace":
        code = trace_code(ev, m, GF(ev.field.p))
    else:
        try:
            found = incomplete_trace_search(ev, m, GF(ev.field.sqrt_order()))
        except OverBudget as exc:
            return exc
        if found is None:
            raise ValueError(f"incomplete-trace search failed on {ev.curve.tag} at m={m}")
        code, _ = found
    return replace(css_self_orthogonal(code), construction="trace")


# -- targets -------------------------------------------------------------------


_row = ExpectedRow


@dataclass(frozen=True)
class ReproTarget:
    description: str
    builds: tuple  # (curve, construction, levels or pole orders), see build_rows
    rows: tuple


TARGETS = {
    "suzuki8": ReproTarget(
        "Suzuki curve over GF(8): construction C rows and binary trace rows.",
        (("suzuki8", "C", (1, 5, 6, 11, 12, 13, 14)), ("suzuki8", "trace", (0, 10))),
        (
            _row("construction C, i=1", 64, 62, 2, 8, "dagger", "exact"),
            _row("construction C, i=5", 64, 54, 3, 8, None, "exact", d_true=4),
            _row("construction C, i=6", 64, 52, 4, 8, "dagger", "exact"),
            _row("construction C, i=11", 64, 42, 5, 8, None, "bound"),
            _row("construction C, i=12", 64, 40, 6, 8, None, "bound"),
            _row("construction C, i=13", 64, 38, 7, 8, None, "bound"),
            _row("construction C, i=14", 64, 36, 8, 8, None, "bound"),
            _row("binary trace, m=0", 64, 62, 2, 2, "ddagger", "exact"),
            _row("binary trace, m=10", 64, 50, 4, 2, "ddagger", "exact"),
        ),
    ),
    "elliptic-gf4": ReproTarget(
        "y^2+y=x^3 over GF(4): hermitian CSS.",
        (("elliptic-gf4", "hermitian", (0,)),),
        (_row("hermitian CSS, m=0", 8, 6, 2, 2, "ddagger", "exact"),),
    ),
    "elliptic-gf9": ReproTarget(
        "y^2=x^3+x over GF(9), fibration y: nested CSS pairs.",
        (("elliptic-gf9", "C", (1, 4, 5, 6, 7)),),
        (
            _row("nested pair, i=1", 15, 13, 2, 9, "dagger", "exact"),
            _row("nested pair, i=4", 15, 7, 4, 9, "dagger", "exact"),
            _row("nested pair, i=5", 15, 5, 5, 9, "dagger", "exact"),
            _row("nested pair, i=6", 15, 3, 6, 9, "dagger", "exact"),
            _row("nested pair, i=7", 15, 1, 7, 9, None, "exact"),
        ),
    ),
    "hyper-even": ReproTarget(
        "Even hyperelliptic y^2+y=x^u: hermitian CSS.",
        (("elliptic-gf4", "hermitian", (0,)), ("hyper-even-45", "hermitian", (0, 5))),
        (
            _row("(q,u)=(2,3), m=0", 8, 6, 2, 2, "ddagger", "exact"),
            _row("(q,u)=(4,5), m=0", 32, 30, 2, 4, "ddagger", "exact"),
            _row("(q,u)=(4,5), m=5", 32, 24, 4, 4, "ddagger", "exact"),
        ),
    ),
    "normtrace": ReproTarget(
        "Norm-trace quotients (2,4,3) and (2,3,7): hermitian and euclidean CSS.",
        (("ntq-2-4-3", "hermitian", (0, 8)), ("norm-trace-2-3-7", "C", (2, 3, 7))),
        (
            _row("quotient (2,4,3), m=0", 32, 30, 2, 4, "ddagger", "exact"),
            _row("quotient (2,4,3), m=8", 32, 24, 3, 4, "dagger", "exact"),
            _row("norm-trace (2,3,7), m=4", 32, 28, 2, 8, "dagger", "exact"),
            _row("norm-trace (2,3,7), m=7", 32, 26, 3, 8, "ddagger", "exact", gv_true="meets"),
            _row("norm-trace (2,3,7), m=14", 32, 18, 4, 8, None, "exact"),
        ),
    ),
    "hermitian-trace": ReproTarget(
        "Incomplete-trace descents of hermitian-type curves.",
        (
            ("elliptic-gf4", "incomplete-trace", (3,)),
            ("hermitian-gf9", "incomplete-trace", (4,)),
            ("hermitian-gf16", "incomplete-trace", (5,)),
        ),
        (
            _row("elliptic-gf4 trace, m=3", 8, 0, 4, 2, None, "exact"),
            _row("hermitian-gf9 trace, m=4", 27, 19, 3, 3, "dagger", "exact"),
            _row("hermitian-gf16 trace, m=5", 64, 56, 3, 4, "dagger", "exact"),
        ),
    ),
    "maximal-q8": ReproTarget(
        "Maximal curve over GF(64), n=256: hermitian CSS in bound mode.",
        (("maximal-gf64", "hermitian", (0, 9, 18, 27)),),
        (
            _row("hermitian CSS, m=0", 256, 254, 2, 8, "ddagger", "bound"),
            _row("hermitian CSS, m=9", 256, 248, 3, 8, "dagger", "bound"),
            _row("hermitian CSS, m=18", 256, 238, 4, 8, None, "bound"),
            _row("hermitian CSS, m=27", 256, 224, 8, 8, None, "bound"),
        ),
    ),
    "maximal-q9": ReproTarget(
        "Maximal curve over GF(81), n=243: hermitian CSS in bound mode.",
        (("maximal-gf81", "hermitian", (0, 10, 20, 23)),),
        (
            _row("hermitian CSS, m=0", 243, 241, 2, 9, "ddagger", "bound"),
            _row("hermitian CSS, m=10", 243, 233, 3, 9, "dagger", "bound"),
            _row("hermitian CSS, m=20", 243, 219, 6, 9, None, "bound"),
            _row("hermitian CSS, m=23", 243, 213, 9, 9, "dagger", "bound"),
        ),
    ),
    "maximal-2-6": ReproTarget(
        "y^2+y=x^9 over GF(64), n=128: hermitian CSS in bound mode.",
        (("maximal-2-6", "hermitian", (0, 9, 11, 13)),),
        (
            _row("hermitian CSS, m=0", 128, 126, 2, 8, "ddagger", "bound"),
            _row("hermitian CSS, m=9", 128, 116, 4, 8, "dagger", "bound"),
            _row("hermitian CSS, m=11", 128, 112, 6, 8, "ddagger", "bound"),
            _row("hermitian CSS, m=13", 128, 108, 8, 8, "ddagger", "bound"),
        ),
    ),
}


def target_ids():
    return list(TARGETS)


def run_target(identifier):
    """Rebuild one target's codes and check every row; returns a TargetReport."""
    try:
        target = TARGETS[identifier]
    except KeyError:
        raise ValueError(f"unknown reproduction target {identifier!r}") from None
    built = build_rows(target.builds)
    if len(built) != len(target.rows):
        raise AssertionError(f"{identifier}: builds give {len(built)} rows, manifest has {len(target.rows)}")
    results = tuple(
        _unbuilt(row, str(params)) if isinstance(params, OverBudget) else check_row(row, params)
        for row, params in zip(target.rows, built)
    )
    return TargetReport(identifier, results)


def _unbuilt(row, reason):
    """The failed result of a row that could not be built."""
    status, _ = gv_status(row.n, row.k, row.d, row.q)
    return RowResult(row, None, status, (reason,), ())


def run_all():
    return [run_target(identifier) for identifier in TARGETS]


# -- hooks for perfbench/worker.py ---------------------------------------------
# It runs these runners as runner(None), with _maximal_rows replaced by a
# capture(ev, poles, budget), to compare its scan curve files with the maximal
# targets.  It reads these names and arguments, so they stay, though budget is
# unused: CASTLEQEC_BUDGET is the only budget.  A test pins the files to CATALOGUE.


def _maximal_rows(ev, poles, budget):
    return _levels(ev, "hermitian", poles)


def _maximal_runner(identifier):
    def runner(budget):
        ((curve, _, poles),) = TARGETS[identifier].builds
        return _maximal_rows(evaluation_set_from_json(CATALOGUE[curve]), poles, budget)

    return runner


_maximal_q8, _maximal_q9, _maximal_2_6 = map(_maximal_runner, ("maximal-q8", "maximal-q9", "maximal-2-6"))
