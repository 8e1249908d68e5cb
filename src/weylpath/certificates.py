"""Explicit certificates realizing each vanishing order m_d.

A certificate is an ordered tuple of positive roots (with
multiplicities) outside the Levi at d whose weighted sum is the target
weight and which supports a full extremal-weight ladder, so its cost is
an upper bound for m_d; clause (d) of the checker pins it to the lower
bounds, making the value exact.

The E6 and E7 tuples are embedded literally, transcribed from the
classical two-row displays shaped like the Dynkin diagram (top row =
nodes 1, 3, 4, 5, 6 and 7 when present, bottom entry = node 2).  The
classical families come from one generator each, which returns its
roots as epsilon vectors ``((index, value), ...)``; :func:`_eps_entries`
is the one conversion to simple-root coordinates, and the diagram flips
of A and D are sign changes of epsilon coordinates.  The catalog covers
every cominuscule parabolic except the odd quadric B_n/P1; everywhere
else, the odd orthogonal spin configurations included,
:func:`greedy_certificate` reads a tuple off the highest-root-first
ladder, with no search.  :func:`path_certificate` extracts one from the
canonical cheapest path; only the witnesses (``verify --witnesses``)
walk that path.

Certificate files, the reports of :mod:`weylpath.verify` and the CLI's
``check-cert --format json`` payload are written by :func:`_dumps`,
which returns ``json.dumps(value, indent=2)`` byte for byte.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii

from .rootsystem import (
    Parabolic, RootSystem, RootSystemError, RootSystemType, _coords_from_eps,
    root_coords_from_eps,
)
from .vanishing import (
    Certificate, _make_step, _same, _search_data, _target_cached, shortest_path,
)


# ---------------------------------------------------------------------------
# epsilon vectors
# ---------------------------------------------------------------------------

def epsilon_to_root(rs: RootSystem, eps: Sequence) -> tuple:
    """Simple-root coordinates of a root given in epsilon coordinates.

    Rejects vectors that are not roots of the system (the conversion
    itself is linear; root membership is what is being certified).  An
    odd C/D half is a ``Fraction``, which no root's coordinates hold.
    """
    coords = root_coords_from_eps(rs.rst, eps)
    if not rs.is_root(coords):
        raise RootSystemError(f"epsilon vector {tuple(eps)} is not a root of {rs.rst}")
    return coords


def _eps_entries(rs: RootSystem, vectors) -> tuple:
    """Certificate entries, each of multiplicity 1, for positive roots
    written as sparse epsilon vectors ``((index, value), ...)`` with
    1-based indices.

    The generators write plain ints of the right length, so each vector
    goes straight to :func:`_coords_from_eps`, and one root-index lookup
    checks the result.
    """
    fam, index = rs.rst.family, rs._root_index
    size = rs.rank + (fam == "A")
    entries = []
    for vector in vectors:
        eps = [0] * size
        for i, x in vector:
            eps[i - 1] += x
        coords = _coords_from_eps(fam, eps)
        if coords not in index:
            raise RootSystemError(f"epsilon vector {tuple(eps)} is not a positive root of {rs.rst}")
        entries.append((coords, 1))
    return tuple(entries)


# ---------------------------------------------------------------------------
# embedded exceptional data, two-row display transcription
# ---------------------------------------------------------------------------

def _display(top, bottom) -> tuple:
    """Dynkin-shaped display to Bourbaki coordinate order."""
    return (top[0], bottom, *top[1:])


# E6, parabolic omitting node 1, indexed by d
_E6_P1 = {
    1: [((1, 1, 1, 0, 0), 0), ((1, 1, 1, 1, 0), 1)],
    2: [((1, 1, 2, 2, 1), 1), ((1, 1, 1, 0, 0), 1)],
    3: [((1, 1, 1, 1, 1), 0), ((1, 2, 2, 1, 0), 1), ((1, 1, 1, 0, 0), 1)],
    4: [((1, 2, 2, 2, 1), 1), ((1, 1, 2, 1, 0), 1), ((1, 1, 1, 1, 1), 1), ((1, 1, 1, 0, 0), 0)],
    5: [((1, 2, 3, 2, 1), 1), ((1, 1, 1, 1, 0), 0), ((1, 1, 1, 1, 1), 1)],
    6: [((1, 1, 1, 1, 1), 0), ((1, 2, 3, 2, 1), 2)],
}

# The E6 diagram flip as the node permutation (node j goes to _E6_FLIP[j-1]);
# E6 has no epsilon realization here, so P6 is P1 with nodes permuted.
_E6_FLIP = (6, 2, 5, 4, 3, 1)

# E7, parabolic omitting node 7, indexed by d.  The middle entry of the
# d = 2 triple circulates in display form with a stray seventh digit in
# the top row; the sum clause pins the intended root uniquely as the
# all-ones vector, which is what is embedded here.
_E7_P7 = {
    1: [((1, 2, 3, 2, 1, 1), 2), ((1, 1, 1, 1, 1, 1), 0)],
    2: [((0, 1, 2, 2, 1, 1), 1), ((1, 1, 1, 1, 1, 1), 1), ((1, 2, 3, 2, 2, 1), 1)],
    3: [((1, 2, 3, 2, 2, 1), 1), ((1, 2, 2, 2, 1, 1), 1), ((1, 1, 1, 1, 1, 1), 1),
        ((0, 1, 2, 1, 1, 1), 1)],
    4: [((1, 2, 3, 3, 2, 1), 1), ((1, 2, 2, 2, 2, 1), 1), ((0, 1, 2, 2, 1, 1), 1),
        ((1, 2, 2, 1, 1, 1), 1), ((1, 1, 2, 1, 1, 1), 1), ((0, 0, 1, 1, 1, 1), 1)],
    5: [((1, 2, 3, 3, 2, 1), 1), ((0, 1, 2, 2, 1, 1), 1), ((0, 1, 1, 1, 1, 1), 1),
        ((1, 1, 2, 2, 2, 1), 1), ((1, 1, 2, 1, 1, 1), 1)],
    6: [((1, 2, 3, 2, 2, 1), 1), ((1, 1, 2, 2, 1, 1), 1), ((0, 1, 2, 2, 2, 1), 1),
        ((0, 1, 1, 1, 1, 1), 1)],
    7: [((0, 1, 2, 2, 2, 1), 1), ((1, 2, 2, 2, 1, 1), 1), ((1, 1, 2, 1, 1, 1), 1)],
}


def _exceptional_entries(table, d):
    return tuple((_display(top, bot), 1) for top, bot in table[d])


# ---------------------------------------------------------------------------
# classical generators: epsilon vectors in n coordinates
# ---------------------------------------------------------------------------

def _catalog_A(n, c, d):
    # Grassmannian certificates; n is the matrix size.  For c > n - c the
    # diagram flip e_i -> -e_{n+1-i} (which reverses the simple-root
    # coordinates) carries the tuple of P_{n-c} at n - d to P_c at d.
    if c > n - c:
        return tuple(tuple((n + 1 - i, -x) for i, x in vector)
                     for vector in _catalog_A(n, n - c, n - d))
    if d <= n - c:
        pairs = [(i, c + d + 1 - i) for i in range(1, min(c, d) + 1)]
    else:
        pairs = [(c + 1 - i, d + i) for i in range(1, n - d + 1)]
    return tuple(((i, 1), (j, -1)) for i, j in pairs)


def _catalog_C(n, p, d):
    # The Lagrangian Grassmannian (p = n): e_i + e_{n+1-i} for i up to
    # min(d, n - d), then 2e_i over the doubled range n - d < i <= d.
    return (tuple(((i, 1), (n + 1 - i, 1)) for i in range(1, min(d, n - d) + 1))
            + tuple(((i, 2),) for i in range(n - d + 1, d + 1)))


def _node1_pair(j):
    """e1 - ej and e1 + ej, one D_n/P1 tuple at each d < j."""
    return ((1, 1), (j, -1)), ((1, 1), (j, 1))


def _catalog_D(n, p, d):
    if p == 1:
        return _node1_pair(d + 1) if d <= n - 2 else (((1, 1), (n, 1 if d == n else -1)),)
    if p == n - 1:
        # The diagram flip e_n -> -e_n carries P_n to P_{n-1}, swapping
        # d = n - 1 and d = n.
        return tuple(tuple((i, -x if i == n else x) for i, x in vector)
                     for vector in _catalog_D(n, n, d if d < n - 1 else 2 * n - 1 - d))
    if d >= n - 1:
        # d // 2 roots e_i + e_j pairing off 1 + d % 2, ..., d from the outside in
        pairs = [(1 + d % 2 + k, d - k) for k in range(d // 2)]
    elif d < n + 1 - d:
        pairs = [(i, n + 1 - i) for i in range(1, d + 1)]
    else:
        # overlapping range: the chained grouping below realizes the
        # order through a sequential ladder; when the doubled block
        # has even length an orthogonal regrouping also exists, but
        # the chain is what the classical case analysis lists
        pairs = [(i, n - d + i) for i in range(1, d + 1)]
    return tuple(((i, 1), (j, 1)) for i, j in pairs)


_CLASSICAL = {"A": _catalog_A, "C": _catalog_C, "D": _catalog_D}


def _catalog_covers(rs: RootSystem, p: int) -> bool:
    """Whether the catalog tabulates P_p: every cominuscule parabolic
    except the odd quadric B_n/P1, which has no tabulated tuples.  P_p is
    cominuscule when theta_p, p's coefficient in the highest root (the
    last positive root), is 1."""
    return rs.rst.family != "B" and rs.positive_roots[-1][p - 1] == 1


def catalog_certificate(rs: RootSystem, parabolic: Parabolic, d: int) -> Certificate | None:
    """The tabulated certificate for this configuration, or None.

    Coverage: every cominuscule parabolic except the odd quadric B_n/P1.
    Other configurations (including every odd orthogonal spin case) have
    no tabulated tuple and return None.
    """
    rs._check_parabolic(parabolic)
    rs._check_index(d)
    p = parabolic.omitted_index
    if not _catalog_covers(rs, p):
        return None
    fam = rs.rst.family
    if fam in _CLASSICAL:
        entries = _eps_entries(rs, _CLASSICAL[fam](rs.rank + (fam == "A"), p, d))
    elif rs.rst.label == "E7":
        entries = _exceptional_entries(_E7_P7, d)
    elif p == 1:
        entries = _exceptional_entries(_E6_P1, d)
    else:
        entries = tuple((tuple(coords[j - 1] for j in _E6_FLIP), m)
                        for coords, m in _exceptional_entries(_E6_P1, _E6_FLIP[d - 1]))
    return Certificate(rs.rst, p, d, entries, "catalog")


def catalog_pair_choices(rs: RootSystem, d: int) -> list:
    """For D_n at node 1 and d <= n-2: every pair {e1-ej, e1+ej} works."""
    rs._check_index(d)
    n = rs.rank
    if rs.rst.family != "D" or d > n - 2:
        raise RootSystemError("pair family only defined for D at node 1, d <= rank-2")
    return [Certificate(rst=rs.rst, omitted=1, d=d, entries=_eps_entries(rs, _node1_pair(j)),
                        origin="catalog")
            for j in range(d + 1, n + 1)]


def greedy_certificate(rs: RootSystem, parabolic: Parabolic, d: int) -> Certificate:
    """Certificate read off the highest-root-first ladder, without search.

    From the source, each step takes the first ``(r, k)`` the single-weight
    ladder yields under the residual's height, the highest usable root
    with <chi, beta^vee> >= 1 that fits under the residual, and never
    backs up.  Every step lowers ht(v), so the walk takes at most
    ht(target) steps.  It reads neither m nor any other route's answer,
    so clause (d) compares two independent computations.  Its cost has
    equalled the path order on every cell tried, but nothing here
    assumes so: if the walk runs out of steps before v = 0 the partial
    tuple is returned, and :func:`check_certificate` rejects it.
    """
    rs._check_parabolic(parabolic)
    rs._check_index(d)
    tw, chi, _, _ = _target_cached(rs.rst, parabolic, d)
    walk, step, roots = _search_data(rs.rst, d).walk, _make_step(rs, _same), rs.positive_roots
    v, entries = tw.root_coords, []
    while any(v) and (first := next(walk(chi, v, sum(v)), None)):
        r, k = first
        chi, v = step(chi, v, r, k)
        entries.append((roots[k], r))
    return Certificate(rst=rs.rst, omitted=parabolic.omitted_index, d=d, entries=tuple(entries),
                       origin="greedy")


def path_certificate(rs: RootSystem, parabolic: Parabolic, d: int) -> Certificate:
    """Certificate read off the canonical cheapest extremal-weight path.

    Always available; the sequential ladder holds by construction.  It
    walks the canonical witness (:func:`shortest_path`) under the path
    order, backing up where a child does not fit, so it is the costly
    route; :func:`best_certificate` uses :func:`greedy_certificate`
    instead, and this one serves the witness's own tests and demos.
    """
    _, steps, _ = shortest_path(rs, parabolic, d)
    return Certificate(rst=rs.rst, omitted=parabolic.omitted_index, d=d, entries=steps,
                       origin="path")


def best_certificate(rs: RootSystem, parabolic: Parabolic, d: int) -> Certificate:
    """Tabulated certificate when one exists, else the greedy certificate."""
    cert = catalog_certificate(rs, parabolic, d)
    return cert if cert is not None else greedy_certificate(rs, parabolic, d)


# ---------------------------------------------------------------------------
# certificate files
# ---------------------------------------------------------------------------

def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "family": cert.rst.family,
        "rank": cert.rst.rank,
        "parabolic_omitted_index": cert.omitted,
        "d": cert.d,
        "entries": [
            {"root_coords": list(coords), "multiplicity": mult}
            for coords, mult in cert.entries
        ],
    }


# Largest rank a certificate file, or the CLI's --rank and --max-rank, may
# name: far above every rank in use, and low enough that building the root
# system it names stays cheap.
MAX_CERTIFICATE_RANK = 64


def _plain_int(value, what: str) -> int:
    # type() rather than isinstance(): bool is an int subclass, and a
    # true multiplicity must not be read as 1.
    if type(value) is not int:
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def certificate_from_dict(data: dict) -> Certificate:
    """Parse a certificate document, rejecting anything but exact integers.

    Raises :class:`RootSystemError` for a document that is not an object,
    missing keys, non-integer or boolean numbers, a rank above
    :data:`MAX_CERTIFICATE_RANK`, root coordinates not of the rank's
    length, a d or parabolic index outside ``1..rank``, and ``entries``,
    an entry or its ``root_coords`` of the wrong shape, naming that field.
    """
    try:
        if not isinstance(data, dict):
            raise TypeError(f"certificate must be an object, got {type(data).__name__}")
        rank = _plain_int(data["rank"], "rank")
        if rank > MAX_CERTIFICATE_RANK:
            raise ValueError(f"rank {rank} exceeds the cap of {MAX_CERTIFICATE_RANK}")
        rst = RootSystemType(str(data["family"]).upper(), rank)
        omitted = _plain_int(data["parabolic_omitted_index"], "parabolic_omitted_index")
        d = _plain_int(data["d"], "d")
        for what, index in (("parabolic_omitted_index", omitted), ("d", d)):
            if not 1 <= index <= rank:
                raise ValueError(f"{what} {index} not in 1..{rank}")
        raw = data["entries"]
        if not isinstance(raw, (list, tuple)):
            raise TypeError(f"entries must be a list, got {type(raw).__name__}")
        entries = []
        for i, e in enumerate(raw):
            try:
                coords = tuple(e["root_coords"])
                mult = e["multiplicity"]
            except KeyError as exc:
                raise ValueError(f"entries[{i}] has no {exc}") from None
            except TypeError:
                # Only the error path looks at which field has the wrong shape.
                if not isinstance(e, dict):
                    raise TypeError(f"entries[{i}] must be an object, "
                                    f"got {type(e).__name__}") from None
                raise TypeError(f"entries[{i}].root_coords must be a list, "
                                f"got {type(e['root_coords']).__name__}") from None
            # One pass over the types; the loop only names the first offender.
            if not {*map(type, coords)} <= {int}:
                for x in coords:
                    _plain_int(x, "root coordinate")
            if len(coords) != rank:
                raise ValueError(f"entries[{i}].root_coords {list(coords)} has length "
                                 f"{len(coords)}, rank is {rank}")
            entries.append((coords, _plain_int(mult, "multiplicity")))
        return Certificate(rst=rst, omitted=omitted, d=d, entries=tuple(entries), origin="file")
    except KeyError as exc:
        raise RootSystemError(f"malformed certificate data: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise RootSystemError(f"malformed certificate data: {exc}") from exc


# The writers of the scalars that json.dumps(..., indent=2) writes, by exact
# type, and the stdlib encoder that json.dumps(..., indent=2) builds.
_INDENTED = json.JSONEncoder(indent=2).encode
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _dumps(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for a value whose
    lines are indented by ``pad``.

    With an indent, json.dumps never reaches the C encoder under Python
    up to 3.12 (3.13's does take an indent): its pure-Python encoder
    passes every chunk up through one generator per level of nesting.
    Here each non-empty list, tuple or dict with ``str`` keys is one
    ``join`` of its items, and a scalar of an exact type in ``_SCALARS``
    is written by its entry there, as the stdlib writes it.  Everything
    else (a float, an empty container, a subclass, a key that is not a
    ``str``, an unknown type) goes to the stdlib's encoder, its lines
    shifted by ``pad``, which is how json.dumps writes that value at this
    depth; an error is the stdlib's.  Only a container that holds itself
    differs: it recurses until RecursionError instead of raising ValueError.
    """
    write = _SCALARS.get(type(value))
    if write is not None:
        return write(value)
    inner, scalar = pad + "  ", _SCALARS.get
    if isinstance(value, (list, tuple)) and value:
        items = [w(v) if (w := scalar(type(v))) else _dumps(v, inner) for v in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    if isinstance(value, dict) and value:
        try:
            items = [f"{encode_basestring_ascii(k)}: "
                     f"{w(v) if (w := scalar(type(v))) else _dumps(v, inner)}"
                     for k, v in value.items()]
        except TypeError:  # a key that is not a str, or an error the stdlib repeats
            pass
        else:
            return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    return _INDENTED(value).replace("\n", "\n" + pad)


def dump_certificate(cert: Certificate, path) -> None:
    with open(path, "w") as fh:
        fh.write(_dumps(certificate_to_dict(cert)) + "\n")


def load_certificate(path) -> Certificate:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError as exc:
            raise RootSystemError("malformed certificate data: nesting too deep") from exc
    return certificate_from_dict(data)
