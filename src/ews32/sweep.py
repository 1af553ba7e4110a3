"""Parameter sweeps over the off-diagonal Allen elasticities.

A grid spec names any subset of the six free elasticities and a range
for each; the sweep takes the Cartesian product in a fixed key order.
A sector's tensor depends only on that sector's swept keys, and so does
its term of g, the allocation-weighted price elasticities of that
sector. So the sweep runs in sector space up to g: each sector's
distinct tensors are built as one stack, completed from their upper
triangles and homogeneity with that sector's shares, and checked once;
a point's checks are those of its two sector tensors. Each sector
tensor that a valid point uses gets its epsilon, its epsilon row-sum
gap and its term of g once, and a valid point's g is the sum of its two
tensors' terms. The rest of the pipeline runs in one pass over the
valid points' g: its invariants, the ratio vector, its classification,
and a dense solve of every classified point's system whose signs must
match the tabled patterns. Invalid points stay in the output with a
rejection status instead of being dropped.

Every stack keeps its tensor or point axis last, s[i, h, tensor],
g[i, h, point] and the systems a[i, h, point], so that a check's
reduction over a matrix's entries runs along contiguous rows of the
stack rather than as one short loop per point. The dense check is one
pivoted elimination of that stack, an elementwise operation per step;
a report's one dense solve stays LAPACK's, whose bits it prints.

The result keeps the engine's columns (SweepRows), each row's status as
a code into one list of status labels; a row's dict is built only when
it is read, and format_csv joins the CSV once from per-row pieces of the
columns, the classified rows' S' and U' written by the exact vectorized
"%.9g" of _digits.nine_digits.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence

import numpy as np

from ._digits import WORD, nine_digits
from .errors import ConsistencyError, Ews32Error, ParseError
from .geometry import REGIONS, _CLASSIFY_FAULTS, _ON_LINE_FAULT, _classify
from .scenario import Scenario, run_report
from .shares import CAPITAL, LABOR, LAND, ShareTable, _finite_array
from .statics import RESIDUAL_TOL, _STRONG, _contradicts_tables, _system, dense_signs
from .substitution import (
    _AES_CHECKS,
    _KEY_SLOTS,
    AesTensor,
    _aes_flags,
    _aggregate,
    _complete,
    _degenerate,
    _epsilon,
    _ews_failures,
    _identity_ok,
    _rowsum_gap,
    _term,
)

GRID_KEYS = tuple(_KEY_SLOTS)

CSV_COLUMNS = GRID_KEYS + (
    "s_prime",
    "u_prime",
    "sign_t",
    "subregion",
    "strong_result",
    "status",
)

# The sweep holds every point's status, and every valid point's g and
# the intermediates after it, at once, so a grid is refused above this
# many points.
MAX_GRID_POINTS = 1_000_000

# Status of a point by the code SweepRows keeps per row: first per bit
# mask of failed Allen-tensor checks (bit k for _AES_CHECKS[k]), where a
# valid tensor's mask 0 is "ok", then the two rejections of a valid tensor.
_STATUSES = (
    ["ok"]
    + [
        "rejected ("
        + "/".join(name for k, (_, name) in enumerate(_AES_CHECKS) if mask >> k & 1)
        + ")"
        for mask in range(1, 1 << len(_AES_CHECKS))
    ]
    + ["rejected (degenerate ratio)", "rejected (on a border line)"]
)
_DEGENERATE_STATUS, _ON_LINE_STATUS = len(_STATUSES) - 2, len(_STATUSES) - 1

# Pipeline stage at which a valid point leaves, in pipeline order, by the
# name a disagreement with the scalar steps gives it; stages 1-4 follow
# the order of the checks passed to _first_fault.
_STAGES = ("ok", "epsilon rows", "g invariants", "degenerate", "classification", "dense check")
_OK, _DEGENERATE, _CLASSIFY, _DENSE = 0, 3, 4, 5


def _first_fault(failed) -> np.ndarray:
    """Fault code per point, from a list of check failure flags in
    checking order: 0 when no check failed, else 1 + the index of the
    first that did."""
    fault = np.zeros(np.shape(failed[0]), dtype=int)
    # Written last to first, so the first failure in order is kept.
    for k in reversed(range(len(failed))):
        fault[failed[k]] = k + 1
    return fault


def parse_grid(spec: str) -> dict[str, list[float]]:
    """Parse "key=lo:hi:count" clauses separated by commas."""
    grid: dict[str, list[float]] = {}
    if not isinstance(spec, str):
        raise ParseError(f"grid spec must be a string, got {type(spec).__name__}")
    if not spec.strip():
        raise ParseError("empty grid spec")
    for clause in spec.split(","):
        clause = clause.strip()
        if "=" not in clause:
            raise ParseError(f"grid clause {clause!r} is not key=lo:hi:count")
        key, _, rng = clause.partition("=")
        key = key.strip()
        if key not in _KEY_SLOTS:
            raise ParseError(f"unknown grid key {key!r}; valid keys: {', '.join(GRID_KEYS)}")
        if key in grid:
            raise ParseError(f"grid key {key!r} given twice")
        parts = rng.split(":")
        if len(parts) != 3:
            raise ParseError(f"grid range {rng!r} is not lo:hi:count")
        try:
            lo, hi = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError as exc:
            raise ParseError(f"grid range {rng!r}: {exc}") from exc
        # Finite iff both bounds are finite and the span does not overflow.
        if not math.isfinite(hi - lo):
            raise ParseError(f"grid range {rng!r} must have finite bounds and span")
        if count < 1:
            raise ParseError(f"grid count must be at least 1, got {count}")
        if count > MAX_GRID_POINTS:
            raise ParseError(f"grid count {count} exceeds {MAX_GRID_POINTS} points")
        grid[key] = [float(v) for v in np.linspace(lo, hi, count)]
    return grid


def _sector_tensors(scenario: Scenario, axes: dict) -> list[np.ndarray]:
    """Each sector's distinct Allen tensors as one (3, 3, n_j) stack in
    grid order, completed with that sector's shares: the template's
    sector tensor with that sector's swept entries set, over the product
    of its own axes only."""
    sectors = []
    for j, th in enumerate(scenario.table.theta.T):
        keys = [key for key in axes if _KEY_SLOTS[key][0] == j]
        # The sector's tensors shaped by its own axes; each swept entry
        # varies along its key's axis only.
        template = scenario.aes.sigma[j].reshape(3, 3, *(1,) * len(keys))
        s = np.full((3, 3, *(len(axes[key]) for key in keys)), template)
        for k, key in enumerate(keys):
            _, row, col = _KEY_SLOTS[key]
            along = [1] * len(keys)
            along[k] = -1
            s[row, col] = axes[key].reshape(along)
        sectors.append(_complete(s.reshape(3, 3, -1), th[:, np.newaxis]))
    return sectors


def _sector_space_g(
    sectors: list[np.ndarray], table: ShareTable
) -> tuple[np.ndarray, np.ndarray]:
    """g and the epsilon row-sum verdict of every point that joins one of
    sector 1's tensors sectors[0] with one of sector 2's sectors[1], in
    grid order, for the table's shares.

    Each tensor's epsilon, row-sum gap and term of g are formed once. A
    point's g is _aggregate of its two tensors' terms, the float
    operations ews_from_epsilon does on the point's own (2, 3, 3)
    epsilon, in the same order, so it has the bits run_report gives the
    point. A point's gap and entry scale are the larger of its two
    tensors'; max is exact, so _identity_ok decides as epsilon_from_aes
    does on the point's two tensors together."""
    eps = [_epsilon(s, th[:, np.newaxis]) for s, th in zip(sectors, table.theta.T)]
    term_1, term_2 = (_term(e, lam[:, np.newaxis]) for e, lam in zip(eps, table.lam.T))
    g = _aggregate(term_1[..., np.newaxis], term_2[..., np.newaxis, :]).reshape(3, 3, -1)

    def pairs(per_tensor):
        return np.maximum.outer(*map(per_tensor, eps)).ravel()

    return g, _identity_ok(
        pairs(_rowsum_gap), lambda: pairs(lambda e: np.abs(e).max(axis=(0, 1)))
    )


def _replay(scenario: Scenario, index: int, sigma: np.ndarray, stage: int, refusal: type) -> None:
    """Run run_report on grid point index, whose completed tensor sigma
    the stacked pipeline refused at _STAGES[stage], and raise the
    report's error if it is a refusal, the error class that stage stands
    for. Any other outcome is a disagreement of the two pipelines:
    ConsistencyError. Either error's message starts with the point's
    name: its index and its elasticities."""
    values = ", ".join(f"{key}={float(sigma[slot])!r}" for key, slot in _KEY_SLOTS.items())
    point = f"grid point {index} ({values})"
    disagree = f"{point}: stacked stage {_STAGES[stage]!r} refused a point the scalar steps"
    try:
        run_report(Scenario(scenario.name, scenario.table, AesTensor(sigma=sigma)))
    except refusal as exc:
        raise type(exc)(f"{point}: {exc}") from exc
    except Ews32Error as exc:
        raise ConsistencyError(f"{disagree} raise {type(exc).__name__}: {exc}") from exc
    raise ConsistencyError(f"{disagree} accept")


def sweep(scenario: Scenario, grid: dict[str, list[float]]) -> SweepRows:
    """One result row per grid point, in deterministic grid order, as
    SweepRows.

    Every classified point's tabled sign patterns are checked against a
    dense solve of its system. When a check fails, _replay runs
    run_report on the first failing grid point in grid order and raises
    the report's error, prefixed with the point's name, when it is the
    refusal the failed stage stands for: a ConsistencyError, or for a
    classification fault the class _CLASSIFY_FAULTS gives it. Any other
    outcome is ConsistencyError, prefixed alike.
    """
    axes = {key: _finite_array(values) for key, values in grid.items()}
    for key, axis in axes.items():
        if key not in _KEY_SLOTS:
            raise ParseError(f"unknown grid key {key!r}")
        if axis is None or axis.ndim != 1 or not axis.size:
            raise ParseError(f"grid key {key!r} needs one or more values, all finite numbers")
    swept = {key: axes[key] for key in GRID_KEYS if key in axes}
    points = math.prod(axis.size for axis in swept.values())
    if points > MAX_GRID_POINTS:
        raise ParseError(f"grid has {points} points, more than {MAX_GRID_POINTS}")
    table = scenario.table
    # Only the points whose two sector tensors pass the Allen-tensor
    # checks go on to epsilon and g. One that a later stage rejects may
    # hold infinities or NaNs after that stage, which its stage code
    # already accounts for.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sectors = _sector_tensors(scenario, swept)
        # Bit k of a sector tensor's code is set when _AES_CHECKS[k] fails.
        bits = 1 << np.arange(len(_AES_CHECKS))
        codes = [
            np.dot(bits, ~_aes_flags(s, th[:, np.newaxis])) for s, th in zip(sectors, table.theta.T)
        ]
        # GRID_KEYS lists sector 1's keys before sector 2's, so grid point
        # p joins sector 1's tensor i0 and sector 2's tensor i1, where
        # i0, i1 = divmod(p, n1) for sector 2's n1 tensors; a point fails
        # each check that either of its sector tensors fails. So the valid
        # points, in grid order, join each valid sector 1 tensor with each
        # valid sector 2 tensor, and those are the tensors they use.
        aes_code = np.bitwise_or.outer(*codes).ravel()
        valid = np.flatnonzero(aes_code == 0)
        # compress keeps the tensor axis last in memory, as masking would not.
        g, rowsum_ok = _sector_space_g(
            [s.compress(c == 0, axis=-1) for s, c in zip(sectors, codes)], table
        )
        invariant = np.any(_ews_failures(g, table), axis=0)
        s, t, u = g[LABOR, CAPITAL], g[LABOR, LAND], g[CAPITAL, LAND]
        s_prime, u_prime = s / t, u / t
        sign_t = np.where(t > 0.0, 1, -1)
        region, failed, _ = _classify(s_prime, u_prime, sign_t, scenario.lines, table)
        fault = _first_fault(failed)
    stage = _first_fault([~rowsum_ok, invariant, _degenerate(t), fault > 0])

    classified = np.flatnonzero(stage == _OK)
    signs, residual = dense_signs(_system(table, g[..., classified]))
    disagree = _contradicts_tables(signs, region[classified])
    stage[classified[disagree | ~(residual <= RESIDUAL_TOL)]] = _DENSE

    caught = (stage == _DEGENERATE) | ((stage == _CLASSIFY) & (fault == _ON_LINE_FAULT))
    bad = np.flatnonzero((stage != _OK) & ~caught)
    if bad.size:
        k = bad[0]
        refusal = _CLASSIFY_FAULTS[fault[k] - 1][0] if stage[k] == _CLASSIFY else ConsistencyError
        i0, i1 = divmod(int(valid[k]), sectors[1].shape[-1])
        sigma = np.stack((sectors[0][..., i0], sectors[1][..., i1]))
        _replay(scenario, int(valid[k]), sigma, stage[k], refusal)

    # Each point's index into _STATUSES: its Allen-tensor mask, or the
    # rejection of its valid tensor.
    code = aes_code
    code[valid[stage == _DEGENERATE]] = _DEGENERATE_STATUS
    code[valid[stage == _CLASSIFY]] = _ON_LINE_STATUS
    return SweepRows(
        swept,
        scenario.aes.sigma,
        valid[classified],
        s_prime[classified],
        u_prime[classified],
        sign_t[classified],
        region[classified],
        code,
    )


class SweepRows(Sequence):
    """The rows of one sweep in grid order: a read-only sequence of dicts
    keyed by CSV_COLUMNS, held as the sweep's columns. A row's dict is
    built when the row is read."""

    def __init__(self, axes, sigma, ok, s_prime, u_prime, sign_t, region, code):
        # Swept key -> its grid values as Python floats, in GRID_KEYS order.
        self._axes = {key: values.tolist() for key, values in axes.items()}
        self._shape = tuple(len(values) for values in axes.values())
        # A row before its swept values, classification and status are
        # filled in: the template's elasticities and empty cells.
        self._blank = dict.fromkeys(CSV_COLUMNS)
        self._blank.update((key, float(sigma[slot])) for key, slot in _KEY_SLOTS.items())
        self._ok = ok  # indices of the classified rows, ascending
        self._s_prime, self._u_prime, self._sign_t, self._region = s_prime, u_prime, sign_t, region
        self._code = code  # each row's index into _STATUSES
        # Each row's index among the classified rows, or -1.
        self._slot = np.full(len(code), -1)
        self._slot[ok] = np.arange(len(ok))

    @property
    def status(self) -> np.ndarray:
        """Each row's status string, as a read-only array built from the
        status codes on each read."""
        status = np.array(_STATUSES, dtype=object)[self._code]
        status.flags.writeable = False
        return status

    def __len__(self) -> int:
        return len(self._code)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"sweep row {index} out of range for {len(self)} rows")
        row = dict(self._blank, status=_STATUSES[self._code.item(i)])
        # item() reads a Python scalar without making a numpy one.
        c = self._slot.item(i)
        if c >= 0:
            code = self._region.item(c)
            row.update(
                s_prime=self._s_prime.item(c),
                u_prime=self._u_prime.item(c),
                sign_t=self._sign_t.item(c),
                subregion=REGIONS[code].value,
                strong_result=_STRONG[code],
            )
        for key, values in reversed(self._axes.items()):
            i, k = divmod(i, len(values))
            row[key] = values[k]
        return row


def _label_cells() -> tuple[np.ndarray, np.ndarray]:
    """The cells sign_t,subregion,strong_result,status of a classified
    row, at index 2 * region + (sign_t > 0): as strings, and with a comma
    ahead and a newline after as four words each, NUL-padded, for
    nine_digits' rows; both read-only."""
    labels = [f"{s},{r.value},{str(f).lower()},ok" for r, f in zip(REGIONS, _STRONG) for s in "-+"]
    padded = b"".join(f",{label}\n".encode().ljust(16, b"\0") for label in labels)
    labels = np.array(labels, dtype=object)
    words = np.frombuffer(padded, dtype=WORD).reshape(-1, 4).T.copy()
    labels.flags.writeable = words.flags.writeable = False
    return labels, words


_LABELS, _LABEL_WORDS = _label_cells()


def _classified_tails(rows: SweepRows, lead: str) -> list[str]:
    """Each classified row's tail: lead, S', U' and the cells after them,
    written by nine_digits, or by one "%.9g" call unless it certifies
    every value."""
    m = len(rows._ok)
    label = 2 * rows._region + (rows._sign_t > 0)
    words = nine_digits(np.concatenate((rows._s_prime, rows._u_prime)))
    if words is None:
        cells = zip(rows._s_prime.tolist(), rows._u_prime.tolist(), _LABELS[label].tolist())
        text = (lead + "%.9g,%.9g,%s\n") * m % tuple(itertools.chain.from_iterable(cells))
        return text.splitlines(keepends=True)
    # One column of words per row: lead, S', U', then its cells.
    head = np.frombuffer(lead.encode() + b"\0" * (-len(lead) % 4), dtype=WORD)
    head = np.broadcast_to(head[:, None], (len(head), m))
    columns = np.concatenate((head, words[:, :m], words[:, m:], _LABEL_WORDS.take(label, axis=1)))
    # The comma ahead of U', in the byte its words leave for it.
    columns[len(head) + 5] |= ord(",")
    text = columns.T.tobytes().translate(None, b"\0").decode("ascii")
    return text.splitlines(keepends=True)


def format_csv(rows: SweepRows) -> str:
    """Fixed-column CSV with 9 significant digits, built from the sweep's
    columns and joined once, header first, from per-row pieces: each
    swept value's string, which also carries the template's values before
    it, along its own grid axis, then one tail per row. A tail holds the
    template's values after the last swept one, then the classification
    cells and the status: the classified rows' tails from
    _classified_tails, and every other row's from its status code."""
    swept = len(rows._axes)
    # The header, then each row's pieces, laid out along the grid's axes.
    pieces = np.empty(1 + len(rows) * (swept + 1), dtype=object)
    pieces[0] = ",".join(CSV_COLUMNS) + "\n"
    grid = pieces[1:].reshape(*rows._shape, swept + 1)
    # The template's values since the last swept one, each with its comma.
    k, text = 0, ""
    for key in GRID_KEYS:
        if key not in rows._axes:
            text += "%.9g," % rows._blank[key]
            continue
        values = rows._axes[key]
        # A swept key's strings vary along its own grid axis only.
        along = [1] * swept
        along[k] = -1
        strings = ((text + "%.9g,\n") * len(values) % tuple(values)).split("\n")[:-1]
        grid[..., k] = np.array(strings, dtype=object).reshape(along)
        k, text = k + 1, ""
    tails = grid.reshape(len(rows), -1)[:, -1]
    unclassified = np.array([text + ",,,,," + status + "\n" for status in _STATUSES], dtype=object)
    tails[:] = unclassified[rows._code]
    if len(rows._ok):
        tails[rows._ok] = _classified_tails(rows, text)
    return "".join(pieces.tolist())
