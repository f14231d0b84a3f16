import hashlib
import itertools
import random
import time
from collections import Counter
from math import gcd

import pytest

from fixtures_data import CUSPED, DOUBLE, RP2LINK, S3_ONE_TET, T41, T52, TWO_KLEIN
from tetspine.errors import GluingError, NotClosedError, ParseError, UngluedFaceError
from tetspine.homology import h1, smith_diagonal, sparse_smith_diagonal
from tetspine.lens import build_Tpq
from tetspine.moves import SplitMix64, iter_pachner_walk, random_pachner_walk
from tetspine.triangulation import (
    ALL_PERMS,
    EDGE_PAIRS,
    FACE_EDGES,
    FACE_VERTS,
    SignedEdgeUnion,
    Triangulation,
    edge_slot,
    parse_triangulation,
    perm_compose,
    perm_inverse,
    serialize_triangulation,
)

ALL_FIXTURES = {
    "T41": T41,
    "T52": T52,
    "S3_ONE_TET": S3_ONE_TET,
    "DOUBLE": DOUBLE,
    "CUSPED": CUSPED,
    "RP2LINK": RP2LINK,
}


def load(text):
    return parse_triangulation(text)


# ---- permutation helpers ------------------------------------------------------------


def test_perm_helpers():
    p = (2, 0, 3, 1)
    assert perm_compose(perm_inverse(p), p) == (0, 1, 2, 3)
    assert perm_compose(p, perm_inverse(p)) == (0, 1, 2, 3)
    q = (1, 0, 3, 2)
    # compose applies the right factor first
    assert perm_compose(p, q)[0] == p[q[0]]
    assert edge_slot(2, 3, 1) == 2 * 6 + EDGE_PAIRS.index((1, 3))
    # canonical_form's keys compare as tuples only while this order is sorted
    assert len(set(ALL_PERMS)) == 24 and list(ALL_PERMS) == sorted(ALL_PERMS)


# ---- text format --------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_parse_serialize_round_trip(name):
    text = ALL_FIXTURES[name]
    tri = load(text)
    again = load(serialize_triangulation(tri))
    assert again == tri
    assert serialize_triangulation(again) == serialize_triangulation(tri)


def test_permutations_of_other_number_types_serialize_as_digits():
    # the constructor keeps its own permutation tuples, not the caller's,
    # so bools pass validation and come back out as the digits they equal
    g = base_gluings()
    g[(0, 0)] = (0, 1, (True, 2, 3, False))
    g[(0, 1)] = (0, 0, [3, False, True, 2])
    tri = Triangulation(1, g)
    assert tri == load(T52)
    assert all(type(x) is int for f in range(4) for x in tri.gluing(0, f)[2])
    assert all(type(x) is int for tc in tri.triangle_classes for x in tc.perm)
    text = serialize_triangulation(tri)
    assert text == serialize_triangulation(load(T52))
    assert load(text) == tri


def test_serialize_comment_and_blank_lines():
    tri = load(T52)
    text = serialize_triangulation(tri, comment="hello\nworld")
    assert text.startswith("# hello\n# world\n")
    assert load("\n\n" + text + "\n") == tri


# characters str.splitlines() breaks at that end no line of the format
NOT_LINE_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("char", NOT_LINE_BREAKS)
def test_comment_keeps_characters_that_are_not_line_breaks(char):
    assert load(f"# x{char}y\n" + T52) == load(T52)
    with pytest.raises(ParseError, match="^line 2, col 1: unrecognized line 'bogus'$"):
        load(f"# x{char}y\nbogus\n" + T52)


def test_crlf_and_cr_line_ends_read_as_lf():
    text = "# T52\n\n" + T52
    for end in ("\r\n", "\r"):
        assert load(text.replace("\n", end)) == load(text)
        with pytest.raises(ParseError, match="^line 3, col 1: unrecognized"):
            load(("# a\n\nbogus\n" + T52).replace("\n", end))


@pytest.mark.parametrize(
    "text,line,needle",
    [
        ("tets: x", 1, "bad tetrahedron count"),
        ("tets: 0", 1, "must be positive"),
        # int() reads Arabic-Indic, full-width and other Unicode decimal digits
        ("tets: \u0661", 1, "col 7: bad tetrahedron count"),
        ("tets: \uff11", 1, "col 7: bad tetrahedron count"),
        ("tets: 1\ng \u0660 0 0 1 1230", 2, "col 3: gluing fields must be integers"),
        # and signs and underscores, which the serializer never writes; a
        # negative field fails here, before any GluingError
        ("tets: +1", 1, "col 7: bad tetrahedron count"),
        ("tets: -1", 1, "col 7: bad tetrahedron count"),
        ("tets: 1_0", 1, "col 7: bad tetrahedron count"),
        ("tets: 1\ng 0_0 0 0 1 1230", 2, "col 3: gluing fields must be integers"),
        ("tets: 1\ng +0 0 0 1 1230", 2, "col 3: gluing fields must be integers"),
        ("tets: 1\ng 0 -0 0 1 1230", 2, "col 5: gluing fields must be integers"),
        # each error names the column of the token at fault
        ("tets: 1\n  g 0 0 -1 1 1230", 2, "col 9: gluing fields must be integers"),
        ("tets: 1\ng 0 0 0 x 1230", 2, "col 9: gluing fields must be integers"),
        ("tets:    x", 1, "col 10: bad tetrahedron count"),
        ("  tets: x", 1, "col 9: bad tetrahedron count"),
        ("\ttets:\t0", 1, "col 8: tetrahedron count must be positive"),
        ("tets: 1\ng 0 0 0 1  12a3", 2, "col 12: bad permutation"),
        ("tets: 1\ng 0 0 0 1 1230\n g  0 0 0 1 1230", 3, "col 5: duplicate gluing"),
        ("tets: 1\n   bogus line", 2, "col 4: unrecognized"),
        ("tets: 1\ntets: 1", 2, "duplicate tets"),
        ("tets: 1 2", 1, "one count"),
        ("g 0 0 0 1 1230", 1, "before tets"),
        ("tets: 1\ng 0 0 0 1", 2, "5 fields"),
        ("tets: 1\ng 0 a 0 1 1230", 2, "integers"),
        ("tets: 1\ng 0 0 0 1 12345", 2, "bad permutation"),
        ("tets: 1\ng 0 0 0 1 1130", 2, "bad permutation"),
        ("tets: 1\ng 0 0 0 1 012\u00b2", 2, "bad permutation"),  # "²".isdigit()
        ("tets: 1\ng 0 0 0 1 1230\ng 0 0 0 1 1230", 3, "duplicate gluing"),
        ("tets: 1\nbogus line", 2, "unrecognized"),
        ("# two tets\ntets: 2\ng 0 0 0 1 1230\ng 0 1 0 0 1230", 2, "need 8 gluing lines, found 2"),
        ("", 0, "missing tets"),
        ("# only a comment\n", 0, "missing tets"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, needle):
    with pytest.raises(ParseError) as exc:
        load(text)
    assert needle in str(exc.value)
    assert f"line {line}" in str(exc.value) or line == 0


# ---- constructor validation ---------------------------------------------------------


def base_gluings():
    return dict(
        (
            ((0, 0), (0, 1, (1, 2, 3, 0))),
            ((0, 1), (0, 0, (3, 0, 1, 2))),
            ((0, 2), (0, 3, (2, 0, 3, 1))),
            ((0, 3), (0, 2, (1, 3, 0, 2))),
        )
    )


def test_constructor_accepts_t52():
    tri = Triangulation(1, base_gluings())
    assert tri == load(T52)


def test_constructor_rejects_bad_face_image():
    g = base_gluings()
    g[(0, 0)] = (0, 2, (1, 2, 3, 0))  # perm[0] = 1, not 2
    with pytest.raises(GluingError, match="does not carry the face"):
        Triangulation(1, g)


def test_constructor_rejects_self_gluing():
    with pytest.raises(GluingError, match="glued to itself"):
        Triangulation(1, {(0, 0): (0, 0, (0, 2, 1, 3))})


def test_constructor_rejects_non_involution():
    g = base_gluings()
    # carries face 1 onto face 0 but is not the inverse of the (0,0) entry
    g[(0, 1)] = (0, 0, (2, 0, 3, 1))
    with pytest.raises(GluingError, match="mutually inverse"):
        Triangulation(1, g)


def test_constructor_rejects_unglued_faces():
    g = base_gluings()
    del g[(0, 2)], g[(0, 3)]
    with pytest.raises(UngluedFaceError) as exc:
        Triangulation(1, g)
    assert (0, 2) in exc.value.slots and (0, 3) in exc.value.slots


def test_unglued_face_message_is_bounded():
    with pytest.raises(UngluedFaceError) as exc:
        Triangulation(30, {})
    assert exc.value.total == 120 and len(exc.value.slots) == 20
    assert str(exc.value).endswith("(4,3), ... and 100 more")


def test_unglued_faces_are_refused_before_the_slot_table_is_built():
    # a table of 4 * 10**9 slots would take tens of gigabytes; a mapping that
    # cannot fill it costs its own size, and its entries are checked first
    start = time.perf_counter()
    with pytest.raises(UngluedFaceError) as exc:
        Triangulation(10**9, {(0, 0): (1, 1, (1, 0, 2, 3))})
    assert time.perf_counter() - start < 1
    assert exc.value.total == 4 * 10**9 - 1
    assert exc.value.slots == [(0, 1), (0, 2), (0, 3)] + [(t, f) for t in range(1, 5) for f in range(4)] + [(5, 0)]
    assert str(exc.value).endswith("(5,0), ... and 3999999979 more")
    with pytest.raises(GluingError, match=r"^face slot \(0,0\) glued to itself$"):
        Triangulation(10**9, {(0, 0): (0, 0, (0, 1, 2, 3))})
    # a list of slots names them all
    short = UngluedFaceError([(0, 1)])
    assert (short.slots, short.total, str(short)) == ([(0, 1)], 1, "unglued face slots: (0,1)")


def test_constructor_rejects_range_errors():
    with pytest.raises(GluingError, match="out of range"):
        Triangulation(1, {(0, 5): (0, 1, (1, 2, 3, 0))})
    with pytest.raises(GluingError, match="out of range"):
        Triangulation(1, {(0, 0): (2, 1, (1, 2, 3, 0))})
    with pytest.raises(GluingError, match="at least one"):
        Triangulation(0, {})


def test_bool_target_is_stored_as_the_int_it_equals():
    g = base_gluings()
    g[(0, 0)] = (False, True, (1, 2, 3, 0))
    tri = Triangulation(1, g)
    assert tri == load(T52)
    assert all(type(x) is int for f in range(4) for x in tri.gluing(0, f)[:2])
    text = serialize_triangulation(tri)
    assert text == serialize_triangulation(load(T52))
    assert load(text) == tri


def test_tetrahedron_count_must_be_an_integer():
    # a bool is stored as the int it equals, so it serializes as a number
    tri = Triangulation(True, base_gluings())
    assert type(tri.n) is int and tri == load(T52)
    assert serialize_triangulation(tri) == serialize_triangulation(load(T52))
    for count in (1.0, "1", None):
        with pytest.raises(GluingError) as exc:
            Triangulation(count, base_gluings())
        assert str(exc.value) == f"tetrahedron count {count!r} is not an integer"


@pytest.mark.parametrize("kind", [float, str, lambda x: None], ids=["float", "str", "None"])
@pytest.mark.parametrize("place", ["t", "f", "t2", "f2"])
def test_slot_numbers_that_are_not_integers_are_gluing_errors(place, kind):
    # each number is otherwise right, so only its type can be refused
    g = base_gluings()
    numbers = dict(zip(("t", "f", "t2", "f2"), (0, 0, *g.pop((0, 0))[:2])))
    numbers[place] = kind(numbers[place])
    g[(numbers["t"], numbers["f"])] = (numbers["t2"], numbers["f2"], (1, 2, 3, 0))
    with pytest.raises(GluingError, match="slot numbers must be integers"):
        Triangulation(1, g)


@pytest.mark.parametrize(
    "key, value",
    [
        ((0, 0, 0), (0, 1, (1, 2, 3, 0))),
        ((0, 0), (0, 1)),
        ((0, 0), (0, 1, 5)),
        (0, (0, 1, (1, 2, 3, 0))),
        ((0, 0), 5),
    ],
    ids=["key-triple", "value-pair", "int-permutation", "int-key", "int-value"],
)
def test_malformed_gluing_entries_are_gluing_errors(key, value):
    # an entry that does not unpack as (t, f): (t2, f2, permutation)
    with pytest.raises(GluingError, match="is not") as exc:
        Triangulation(1, {key: value})
    assert f"{key!r}: {value!r}" in str(exc.value)


def test_constructor_rejects_edge_self_reversal():
    # identity-style fold through two faces sharing an edge reverses that
    # edge onto itself; the quotient has no consistent edge orientation
    g = {
        (0, 0): (0, 1, (1, 0, 2, 3)),
        (0, 1): (0, 0, (1, 0, 2, 3)),
        (0, 2): (0, 3, (0, 1, 3, 2)),
        (0, 3): (0, 2, (0, 1, 3, 2)),
    }
    try:
        Triangulation(1, g)
    except GluingError:
        return
    # some labelings of this shape survive; force one that cannot
    g = {
        (0, 0): (0, 1, (1, 0, 3, 2)),
        (0, 1): (0, 0, (1, 0, 3, 2)),
        (0, 2): (0, 3, (1, 0, 3, 2)),
        (0, 3): (0, 2, (1, 0, 3, 2)),
    }
    with pytest.raises(GluingError):
        Triangulation(1, g)


def disjoint_union(a, b, number=None):
    """The gluings of a and b side by side: b's tetrahedra follow a's, and
    then tetrahedron t is renamed number[t] when number is given."""
    out = {}
    for shift, tri in ((0, a), (a.n, b)):
        for t in range(tri.n):
            for f in range(4):
                t2, f2, perm = tri.gluing(t, f)
                out[(t + shift, f)] = (t2 + shift, f2, perm)
    if number is None:
        return out
    return {(number[t], f): (number[t2], f2, p) for (t, f), (t2, f2, p) in out.items()}


@pytest.mark.parametrize(
    "first,second,number,unreached",
    [
        # the first and second tables have isomorphic first components, and
        # so have the third and fourth: a form of one component would call
        # each pair isomorphic
        ((4, 1), (4, 1), None, 1),
        ((4, 1), (5, 2), None, 1),
        ((4, 1), (5, 1), None, 1),
        ((4, 1), (7, 2), None, 1),
        ((5, 2), (7, 2), None, 1),
        # T_5_1's two tetrahedra renamed 0 and 2, so tetrahedron 1 is T_4_1's
        ((4, 1), (5, 1), (1, 0, 2), 1),
        ((5, 1), (4, 1), None, 2),
    ],
)
def test_constructor_rejects_disconnected_tables(first, second, number, unreached):
    a, b = build_Tpq(*first), build_Tpq(*second)
    with pytest.raises(
        GluingError, match=f"tetrahedron {unreached} cannot be reached from tetrahedron 0"
    ):
        Triangulation(a.n + b.n, disjoint_union(a, b, number))


# ---- cell classes -------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,counts",
    [
        ("T41", (1, 2, 2, 1)),
        ("T52", (1, 2, 2, 1)),
        ("S3_ONE_TET", (2, 3, 2, 1)),
        ("DOUBLE", (4, 6, 4, 2)),
        ("CUSPED", (1, 2, 4, 2)),
        ("RP2LINK", (2, 3, 4, 2)),
    ],
)
def test_cell_counts(name, counts):
    tri = load(ALL_FIXTURES[name])
    assert (len(tri.vertex_classes), len(tri.edge_classes), 2 * tri.n, tri.n) == counts
    assert tri.euler_characteristic() == counts[0] - counts[1] + counts[2] - counts[3]


def test_euler_characteristic():
    assert load(T52).euler_characteristic() == 0
    assert load(DOUBLE).euler_characteristic() == 0
    assert load(CUSPED).euler_characteristic() == 1
    assert load(RP2LINK).euler_characteristic() == 1


def oracle_edge_partition(tri):
    """Independent closure of the edge-slot identifications."""
    slots = {(t, pair) for t in range(tri.n) for pair in EDGE_PAIRS}
    parent = {s: s for s in slots}

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    for t in range(tri.n):
        for u, v in EDGE_PAIRS:
            for f in range(4):
                if f in (u, v):
                    continue
                t2, _, perm = tri.gluing(t, f)
                a, b = sorted((perm[u], perm[v]))
                ra, rb = find((t, (u, v))), find((t2, (a, b)))
                if ra != rb:
                    parent[ra] = rb
    groups = {}
    for s in slots:
        groups.setdefault(find(s), set()).add(s)
    return {frozenset(g) for g in groups.values()}


def oracle_directed_edge_orbits(tri):
    """Independent closure of the directed edges (t, u, v) under the gluings:
    maps each to the first directed edge of its orbit."""
    orbit = {}
    for start in ((t, u, v) for t in range(tri.n) for u in range(4) for v in range(4) if u != v):
        if start in orbit:
            continue
        orbit[start] = start
        stack = [start]
        while stack:
            t, u, v = stack.pop()
            for f in range(4):
                if f in (u, v):
                    continue
                t2, _, perm = tri.gluing(t, f)
                image = (t2, perm[u], perm[v])
                if image not in orbit:
                    orbit[image] = start
                    stack.append(image)
    return orbit


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_edge_classes_match_naive_closure(name):
    tri = load(ALL_FIXTURES[name])
    got = {
        frozenset((s // 6, EDGE_PAIRS[s % 6]) for s in ec.slots)
        for ec in tri.edge_classes
    }
    assert got == oracle_edge_partition(tri)
    assert sum(ec.degree for ec in tri.edge_classes) == 6 * tri.n
    # classes are numbered in order of their smallest slot
    assert [ec.index for ec in tri.edge_classes] == list(range(len(tri.edge_classes)))
    assert [ec.rep for ec in tri.edge_classes] == sorted(ec.rep for ec in tri.edge_classes)
    # a slot's sign is +1 exactly when its ascending direction lies in the
    # orbit of its class representative's ascending direction
    orbit = oracle_directed_edge_orbits(tri)
    for ec in tri.edge_classes:
        rep_t, (rep_u, rep_v) = ec.rep // 6, EDGE_PAIRS[ec.rep % 6]
        forward = orbit[(rep_t, rep_u, rep_v)]
        assert orbit[(rep_t, rep_v, rep_u)] != forward  # no edge is reversed onto itself
        for slot in ec.slots:
            t, (u, v) = slot // 6, EDGE_PAIRS[slot % 6]
            sign = 1 if orbit[(t, u, v)] == forward else -1
            assert tri._edge_data[2][slot] == sign, (name, slot)


def reference_signed_edge_classes(n, gluings):
    """The whole-table routine SignedEdgeUnion replaced: a fresh union-find
    over all 6n slots, fed ((t, f), (t2, f2, perm)) pairs in the given order."""
    parent = list(range(6 * n))
    flip = [0] * (6 * n)

    def find(s):
        path = []
        while parent[s] != s:
            path.append(s)
            s = parent[s]
        total = 0
        for y in reversed(path):
            total ^= flip[y]
            parent[y] = s
            flip[y] = total
        return s, total

    for (t, f), (t2, _, perm) in gluings:
        for a, b in FACE_EDGES[f]:
            a2, b2 = perm[a], perm[b]
            rx, sx = find(edge_slot(t, a, b))
            ry, sy = find(edge_slot(t2, a2, b2))
            odd = sx ^ sy ^ (a2 > b2)
            if rx != ry:
                parent[ry] = rx
                flip[ry] = odd
            elif odd:
                raise GluingError(
                    f"edge {(a, b)} of tetrahedron {t} is identified with itself reversed"
                )
    class_of = [0] * (6 * n)
    sign_of = [0] * (6 * n)
    first = {}
    for slot in range(6 * n):
        root, sign = find(slot)
        idx, rep_sign = first.setdefault(root, (len(first), sign))
        class_of[slot] = idx
        sign_of[slot] = 1 if sign == rep_sign else -1
    return class_of, sign_of


def random_face_pairing(rng, n):
    """Both directions of a random face pairing of n tetrahedra; it may be
    disconnected or reverse an edge onto itself."""
    slots = [(t, f) for t in range(n) for f in range(4)]
    rng.shuffle(slots)
    gluings = {}
    for (t, f), (t2, f2) in zip(slots[::2], slots[1::2]):
        perm = rng.choice([p for p in ALL_PERMS if p[f] == f2])
        gluings[(t, f)] = (t2, f2, perm)
        gluings[(t2, f2)] = (t, f, perm_inverse(perm))
    return gluings


def test_edge_union_fed_each_pair_once_matches_the_whole_table_routine():
    # the constructor feeds each glued face pair once, in slot order; the
    # reference feeds every slot, so both directions. Classes, signs and the
    # text of a reversed-edge error must agree.
    rng = random.Random(11)
    failures = 0
    for _ in range(1500):
        n = rng.randint(1, 4)
        gluings = random_face_pairing(rng, n)
        try:
            want = reference_signed_edge_classes(n, sorted(gluings.items()))
        except GluingError as exc:
            want = str(exc)
            failures += 1
        union = SignedEdgeUnion(n)
        try:
            for (t, f), (t2, f2, perm) in sorted(gluings.items()):
                if (t, f) < (t2, f2):
                    union.glue(t, f, t2, ALL_PERMS.index(perm))
            got = union.classes()
        except GluingError as exc:
            got = str(exc)
        assert got == want, gluings
        try:
            tri = Triangulation(n, gluings)
        except GluingError as exc:
            if "disconnected" not in str(exc):
                assert str(exc) == want, gluings
        else:
            assert tri._edge_data[1:] == want, gluings
    assert 300 < failures < 1200


def test_edge_union_resumes_between_gluings():
    # faces glued in a random order: after every gluing the classes equal the
    # whole-table routine on the gluings so far, both directions of each
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(1, 4)
        gluings = random_face_pairing(rng, n)
        pairs = [(a, b) for a, b in gluings.items() if a < b[:2]]
        rng.shuffle(pairs)
        union = SignedEdgeUnion(n)
        fed = []
        for (t, f), (t2, f2, perm) in pairs:
            fed += [((t, f), (t2, f2, perm)), ((t2, f2), (t, f, perm_inverse(perm)))]
            try:
                union.glue(t, f, t2, ALL_PERMS.index(perm))
            except GluingError as exc:
                with pytest.raises(GluingError) as want:
                    reference_signed_edge_classes(n, fed)
                assert str(exc) == str(want.value)
                break
            assert union.classes() == reference_signed_edge_classes(n, fed)


@pytest.mark.parametrize("p, q", [(1000, 1), (1000, 999), (200, 1)])
def test_edge_union_depth_is_logarithmic_in_any_glue_order(p, q):
    # a layered build glues its triangle classes in a chain, which a union
    # that links root under root regardless of size turns into a path
    tri = build_Tpq(p, q)
    pairs = [(*tc.rep, tc.other[0], ALL_PERMS.index(tc.perm)) for tc in tri.triangle_classes]
    shuffled = list(pairs)
    random.Random(30).shuffle(shuffled)
    bound = (6 * tri.n).bit_length() - 1  # floor(log2 6n)
    for order in (pairs, pairs[::-1], shuffled):
        union = SignedEdgeUnion(tri.n)
        for t, f, t2, k in order:
            union.glue(t, f, t2, k)
        depth = 0
        for slot in range(6 * tri.n):
            steps = 0
            while union.parent[slot] != slot:
                slot = union.parent[slot]
                steps += 1
            depth = max(depth, steps)
        assert depth <= bound, (len(order), depth)
        assert union.classes() == tri._edge_data[1:]


def mutate_once(rng, n, gluings):
    """A copy of gluings with one fault: a direction that carries its face
    but is not the inverse of its partner, a dropped gluing, a permutation
    that does not carry its face, a slot or target out of range, or a value
    that is not a permutation."""
    g = dict(gluings)
    key = rng.choice(sorted(g))
    t, f = key
    t2, f2, perm = g[key]
    kind = rng.randrange(5)
    if kind == 0:
        g[key] = (t2, f2, rng.choice([p for p in ALL_PERMS if p[f] == f2 and p != perm]))
    elif kind == 1:
        del g[key]
    elif kind == 2:
        g[key] = (t2, f2, rng.choice([p for p in ALL_PERMS if p[f] != f2]))
    elif kind == 3:
        del g[key]
        bad = rng.choice([(n, f, t2, f2), (t, 4, t2, f2), (t, f, n, f2), (t, f, t2, -1)])
        g[bad[:2]] = (*bad[2:], perm)
    else:
        g[key] = (t2, f2, rng.choice([(0, 0, 1, 2), (0, 1, 2), (0, 1, 2, 4), (3, 2, 1, 0, 4)]))
    return g


def constructor_outcome(n, gluings):
    """What the constructor gives for one table, as text: its refusal, or
    its triangle classes, signed edge classes, face-slot table, vertex
    classes and vertex links."""
    try:
        tri = Triangulation(n, gluings)
    except GluingError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr(
        (
            [(tc.index, tc.rep, tc.other, tuple(tc.perm)) for tc in tri.triangle_classes],
            list(tri._edge_data[1]),
            list(tri._edge_data[2]),
            list(tri._glue),
            [(vc.index, tuple(vc.slots)) for vc in tri.vertex_classes],
            [(lk.chi, lk.orientable) for lk in tri.vertex_links],
        )
    )


def test_constructor_outcomes_are_frozen():
    # seeded random tables of 1-4 tetrahedra (some disconnected, some with
    # an edge reversed onto itself), each also with one fault; the fixtures;
    # and the 200 walk descendants of `verify existence --seeds 5 --steps 10`
    rng = random.Random(25)
    tables = []
    for _ in range(300):
        n = rng.randint(1, 4)
        gluings = random_face_pairing(rng, n)
        tables += [(n, gluings), (n, mutate_once(rng, n, gluings))]
    tris = [load(text) for text in (*ALL_FIXTURES.values(), TWO_KLEIN)]
    master = SplitMix64(0)
    for p, q in ((4, 1), (5, 1), (5, 2), (7, 2)):
        base = build_Tpq(p, q)
        for _ in range(5):
            tris += iter_pachner_walk(base, 10, master.next())
    assert len(tris) == 207
    for tri in tris:
        tables.append((tri.n, {(t, f): tri.gluing(t, f) for t in range(tri.n) for f in range(4)}))
    digest = hashlib.sha256()
    kinds = Counter()
    for n, gluings in tables:
        outcome = constructor_outcome(n, gluings)
        kinds["built" if outcome.startswith("(") else outcome.split(":")[0]] += 1
        digest.update(f"{outcome}\0".encode())
    assert kinds == {"built": 301, "GluingError": 436, "UngluedFaceError": 70}
    assert digest.hexdigest() == (
        "35b7ac5d5fe9af55d81bdb26d03768d8b2c6a033aba7a9c0aab8cf5c00707bdc"
    )


def oracle_vertex_partition(tri):
    slots = {(t, v) for t in range(tri.n) for v in range(4)}
    parent = {s: s for s in slots}

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    for t in range(tri.n):
        for f in range(4):
            t2, _, perm = tri.gluing(t, f)
            for v in FACE_VERTS[f]:
                ra, rb = find((t, v)), find((t2, perm[v]))
                if ra != rb:
                    parent[ra] = rb
    groups = {}
    for s in slots:
        groups.setdefault(find(s), set()).add(s)
    return {frozenset(g) for g in groups.values()}


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_vertex_classes_match_naive_closure(name):
    tri = load(ALL_FIXTURES[name])
    got = {
        frozenset((s // 4, s % 4) for s in vc.slots) for vc in tri.vertex_classes
    }
    assert got == oracle_vertex_partition(tri)


def test_class_accessors_are_consistent():
    tri = load(T52)
    for t in range(tri.n):
        for u, v in EDGE_PAIRS:
            idx = tri.edge_class_of(t, u, v)
            assert edge_slot(t, u, v) in tri.edge_classes[idx].slots
            assert tri._edge_data[2][edge_slot(t, u, v)] in (-1, 1)
        for f in range(4):
            tc = tri.triangle_classes[tri.triangle_class_of(t, f)]
            assert (t, f) in (tc.rep, tc.other)
    assert len(tri.triangle_classes) == 2 * tri.n


@pytest.mark.parametrize(
    "accessor, args",
    [
        ("gluing", (0, 4)),
        ("gluing", (0, -1)),
        ("gluing", (-1, 0)),
        ("gluing", (2, 0)),
        ("triangle_class_of", (0, 7)),
        ("triangle_class_of", (-1, 0)),
        ("edge_class_of", (-1, 0, 1)),
        ("edge_class_of", (2, 0, 1)),
    ],
)
def test_slot_accessors_refuse_slots_out_of_range(accessor, args):
    # T_7_2 has two tetrahedra; (0, 4) and (-1, 0) would read slot 4, which
    # is (1, 0), and (-1, 0, 1) would read the edge slots of tetrahedron 1
    tri = build_Tpq(7, 2)
    with pytest.raises(IndexError, match=r"no (face|edge) slot \(" + ",".join(map(str, args))):
        getattr(tri, accessor)(*args)


@pytest.mark.parametrize("u, v", [(0, 0), (0, 5), (-1, 2), (4, 1), (3, 3)])
def test_edge_accessors_refuse_a_vertex_pair_that_is_no_edge(u, v):
    # tetrahedron 0 exists, so only the pair is wrong: two equal vertices,
    # or one outside 0..3, named in the order given
    tri = build_Tpq(7, 2)
    for read in (lambda: edge_slot(0, u, v), lambda: tri.edge_class_of(0, u, v)):
        with pytest.raises(IndexError, match=rf"^no edge slot for the vertex pair \({u}, {v}\)$"):
            read()


def test_edge_sign_of_rep_is_positive():
    for text in ALL_FIXTURES.values():
        tri = load(text)
        for ec in tri.edge_classes:
            assert tri._edge_data[2][ec.rep] == 1


# ---- vertex links -------------------------------------------------------------------


def test_vertex_links_classifications():
    # (chi, orientable) per link: spheres, a torus, projective planes
    t52 = load(T52)
    assert [(lk.chi, lk.orientable) for lk in t52.vertex_links] == [(2, True)]
    assert t52.is_closed and t52.kind == "closed"

    dbl = load(DOUBLE)
    assert [(lk.chi, lk.orientable) for lk in dbl.vertex_links] == [(2, True)] * 4
    assert dbl.is_closed

    cusped = load(CUSPED)
    assert [(lk.chi, lk.orientable) for lk in cusped.vertex_links] == [(0, True)]
    assert not cusped.is_closed and cusped.kind == "ideal"

    rp2 = load(RP2LINK)
    assert [(lk.chi, lk.orientable) for lk in rp2.vertex_links] == [(1, False)] * 2
    assert not rp2.is_closed

    for text in ALL_FIXTURES.values():
        tri = load(text)
        assert len(tri.vertex_links) == len(tri.vertex_classes)
        assert sum(len(vc.slots) for vc in tri.vertex_classes) == 4 * tri.n


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_link_chi_sum_and_class_order_along_walks(name):
    # Truncating every vertex leaves a compact 3-manifold M' bounded by the
    # vertex links, so chi(M') = chi(dM') / 2. Coning each link back on
    # (chi 1 each) gives V - E + 2T - T = chi(M') + V - sum chi(link), hence
    # sum chi(link) = 2 (E - T). The oracle shares no code with the links.
    base = load(ALL_FIXTURES[name])
    for tri in (base, *iter_pachner_walk(base, 10, seed=7)):
        e = len(tri.edge_classes)
        assert sum(lk.chi for lk in tri.vertex_links) == 2 * (e - tri.n)
        firsts = [vc.slots[0] for vc in tri.vertex_classes]
        assert firsts == sorted(firsts)
        for idx, vc in enumerate(tri.vertex_classes):
            assert vc.index == idx
            assert list(vc.slots) == sorted(vc.slots)
        assert sorted(s for vc in tri.vertex_classes for s in vc.slots) == list(range(4 * tri.n))


def test_link_chi_matches_triangle_count():
    # each vertex link is built from one triangle per incident corner
    for text in ALL_FIXTURES.values():
        tri = load(text)
        for lk, vc in zip(tri.vertex_links, tri.vertex_classes, strict=True):
            assert lk.chi <= 2
            assert len(vc.slots) >= 1


# ---- isomorphism --------------------------------------------------------------------


def relabel(tri, tet_perm, vert_perms):
    """Rebuild tri with tetrahedra renamed by tet_perm and the vertices of
    old tet t renamed by vert_perms[t]."""
    out = {}
    for t in range(tri.n):
        for f in range(4):
            t2, f2, p = tri.gluing(t, f)
            s, s2 = vert_perms[t], vert_perms[t2]
            q = perm_compose(s2, perm_compose(p, perm_inverse(s)))
            out[(tet_perm[t], s[f])] = (tet_perm[t2], s2[f2], q)
    return Triangulation(tri.n, out)


def test_isomorphism_invariance_under_relabeling():
    dbl = load(DOUBLE)
    moved = relabel(dbl, (1, 0), ((2, 3, 1, 0), (0, 2, 3, 1)))
    assert moved.is_isomorphic_to(dbl)

    t52 = load(T52)
    turned = relabel(t52, (0,), ((3, 1, 0, 2),))
    assert turned.is_isomorphic_to(t52)

    assert not load(T41).is_isomorphic_to(t52)
    assert t52.is_isomorphic_to(t52)


def test_canonical_form_is_stable():
    tri = load(T52)
    assert tri.canonical_form == load(serialize_triangulation(tri)).canonical_form


def reference_encode(tri, start, p0):
    """The gluing table relabelled from tetrahedron start with vertex map p0,
    as the flat tuple of (k, f2, q0, q1, q2, q3) per face, built in full."""
    idx_of = {start: 0}
    perms = {start: p0}
    order = [start]
    out = []
    ci = 0
    while ci < len(order):
        t = order[ci]
        mt = perms[t]
        mt_inv = perm_inverse(mt)
        for face in range(4):
            f = mt_inv[face]
            t2, f2, phi = tri.gluing(t, f)
            if t2 not in idx_of:
                idx_of[t2] = len(order)
                perms[t2] = perm_compose(mt, perm_inverse(phi))
                order.append(t2)
            m2 = perms[t2]
            out.append(idx_of[t2])
            out.append(m2[f2])
            out.extend(perm_compose(m2, perm_compose(phi, mt_inv)))
        ci += 1
    return tuple(out)


def reference_canonical_form(tri):
    """The minimum over every relabeling, each one encoded in full first."""
    return (tri.n,) + min(reference_encode(tri, s, p) for s in range(tri.n) for p in ALL_PERMS)


def random_relabel(tri, rng):
    tets = list(range(tri.n))
    rng.shuffle(tets)
    return relabel(tri, tets, [rng.choice(ALL_PERMS) for _ in range(tri.n)])


def test_canonical_form_agrees_with_the_full_minimum():
    # the pruned loop must return the minimum of the full encodings. Ties are
    # where an early stop could go wrong: four relabelings of the
    # 1-tetrahedron T_5_2 tie to the end, and the runner-up of T_7_2 ties
    # with the minimum over three whole faces before it parts
    def encodings(tri):
        return sorted(reference_encode(tri, s, p) for s in range(tri.n) for p in ALL_PERMS)

    t52 = encodings(load(T52))
    assert t52.count(t52[0]) == 4
    t72 = sorted(set(encodings(build_Tpq(7, 2))))
    assert t72[0][:18] == t72[1][:18]
    corpus = [load(text) for text in ALL_FIXTURES.values()]
    corpus += [build_Tpq(p, q) for p in range(4, 13) for q in range(1, p) if gcd(p, q) == 1]
    corpus += [
        random_pachner_walk(build_Tpq(p, q), 8, seed=seed)
        for p, q in ((7, 2), (8, 3), (12, 5))
        for seed in range(3)
    ]
    rng = random.Random(10)
    for tri in corpus:
        form = reference_canonical_form(tri)
        assert tri.canonical_form == form, serialize_triangulation(tri)
        # the form itself, not only the isomorphism test, is unchanged by a
        # relabeling
        moved = random_relabel(tri, rng)
        assert moved.canonical_form == form, serialize_triangulation(tri)
    assert len(corpus) == 6 + 42 + 9


def brute_isomorphic(a, b):
    """Whether some map of a's tetrahedra onto b's, with a vertex map for
    each, carries every gluing of a onto the gluing of b at the image face:
    all n! * 24^n maps are tried, and no relabeled table is built."""
    if a.n != b.n:
        return False
    n = a.n
    faces = [(t, f) + a.gluing(t, f) for t in range(n) for f in range(4)]
    for tets in itertools.permutations(range(n)):
        for verts in itertools.product(itertools.permutations(range(4)), repeat=n):
            for t, f, t2, f2, p in faces:
                s, s2 = verts[t], verts[t2]
                image = [0] * 4
                for v in range(4):
                    image[s[v]] = s2[p[v]]
                if b.gluing(tets[t], s[f]) != (tets[t2], s2[f2], tuple(image)):
                    break
            else:
                return True
    return False


def test_brute_isomorphic_sees_a_relabeling():
    dbl = load(DOUBLE)
    assert brute_isomorphic(dbl, relabel(dbl, (1, 0), ((2, 3, 1, 0), (0, 2, 3, 1))))
    assert not brute_isomorphic(load(T41), load(T52))


def relabeled_corpus(tris, seed):
    """tris, each followed by one random relabeling of it."""
    rng = random.Random(seed)
    return [x for tri in tris for x in (tri, random_relabel(tri, rng))]


FIXTURES = [load(text) for text in (*ALL_FIXTURES.values(), TWO_KLEIN)]


def test_isomorphism_agrees_with_brute_force_up_to_two_tetrahedra():
    lens = [build_Tpq(p, q) for p in range(4, 9) for q in range(1, p) if gcd(p, q) == 1]
    bases = [tri for tri in FIXTURES + lens if tri.n <= 2]
    walked = []
    for base in bases:
        for seed in range(3):
            for cur in iter_pachner_walk(base, 4, seed):
                if cur.n <= 2 and cur not in bases + walked:
                    walked.append(cur)
    assert len(bases) == 7 + 12 and len(walked) == 6
    corpus = relabeled_corpus(bases + walked, seed=4)
    same = 0
    for i, a in enumerate(corpus):
        for b in corpus[i:]:
            if a.n != b.n:
                continue
            want = brute_isomorphic(a, b)
            assert a.is_isomorphic_to(b) == want, (serialize_triangulation(a), serialize_triangulation(b))
            assert b.is_isomorphic_to(a) == want, (serialize_triangulation(a), serialize_triangulation(b))
            same += want
    # unordered pairs, each subject with itself included: 75 come from the
    # 25 subjects and their relabelings alone; the count pins the corpus
    assert same == 199


def test_isomorphism_agrees_with_the_canonical_form():
    corpus = FIXTURES + [build_Tpq(p, q) for p in range(4, 21) for q in range(1, p) if gcd(p, q) == 1]
    # after 2 steps, some walks reach tables with the same edge degrees that
    # are not isomorphic, which only the relabeling search tells apart
    corpus += [
        random_pachner_walk(build_Tpq(p, q), steps, seed=seed)
        for steps in (8, 2)
        for p, q in ((5, 2), (7, 2), (8, 3), (12, 5))
        for seed in range(3)
    ]
    corpus = relabeled_corpus(corpus, seed=5)
    same = 0
    # the non-isomorphic pairs whose sorted edge degrees differ, which the
    # degree check refuses, and those it leaves to the relabeling search
    by_degrees = by_search = 0
    for i, a in enumerate(corpus):
        for b in corpus[i:]:
            if a.n != b.n:
                continue
            want = a.canonical_form == b.canonical_form
            assert a.is_isomorphic_to(b) == want, (serialize_triangulation(a), serialize_triangulation(b))
            assert b.is_isomorphic_to(a) == want, (serialize_triangulation(a), serialize_triangulation(b))
            same += want
            if not want:
                degrees = [sorted(ec.degree for ec in x.edge_classes) for x in (a, b)]
                if degrees[0] != degrees[1]:
                    by_degrees += 1
                else:
                    by_search += 1
    assert same == 1185
    assert by_degrees > 0 and by_search > 0, (by_degrees, by_search)


def test_isomorphism_of_large_builds_takes_bounded_time():
    # the search stops at its first match, and a non-isomorphic pair drops
    # each of the 24n relabelings at its first differing key
    big = build_Tpq(1000, 1)
    cases = [
        (big, random_relabel(big, random.Random(6)), True),
        (big, build_Tpq(1000, 999), True),
        # n = 50 on both sides
        (build_Tpq(53, 1), build_Tpq(103, 2), False),
    ]
    for a, b, want in cases:
        assert a.n == b.n
        start = time.perf_counter()
        assert a.is_isomorphic_to(b) == want
        assert time.perf_counter() - start < 2.0, (a.n, want)


# ---- homology -----------------------------------------------------------------------


def test_smith_diagonal_frozen_cases():
    # only the nonzero invariant factors are reported
    assert smith_diagonal([[2, 4], [6, 8]]) == [2, 4]
    assert smith_diagonal([[1, 0], [0, 1]]) == [1, 1]
    assert smith_diagonal([[0, 0], [0, 0]]) == []
    assert smith_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert smith_diagonal([[6]]) == [6]
    assert smith_diagonal([[1, 2, 3]]) == [1]
    assert smith_diagonal([]) == []
    # no unit entry: least-|value| pivots, then diag(a, b) ~ diag(gcd, lcm)
    assert smith_diagonal([[4, 0], [0, 6]]) == [2, 12]
    assert smith_diagonal([[6, 10, 15]]) == [1]
    assert smith_diagonal([[-4], [6]]) == [2]
    assert smith_diagonal([[0, 4], [6, 0], [0, 0]]) == [2, 12]
    assert smith_diagonal([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == [1, 1, 30]


def test_smith_diagonal_against_sympy():
    import random

    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(31)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        got = smith_diagonal([row[:] for row in m])
        ref = smith_normal_form(Matrix(m))
        want = [abs(ref[i, i]) for i in range(min(rows, cols)) if ref[i, i]]
        assert [abs(x) for x in got] == want


def test_sparse_smith_diagonal_against_sympy():
    # sympy's Smith form shares no code with the elimination. Half the
    # matrices are sparse, as boundary maps are; the unit-free batch forces
    # the least-pivot step and the gcd/lcm ordering of the diagonal
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(41)
    batches = [((-2, -1, 0, 1, 2, 3, 5), 3000), ((0, 2, -2, 3, 4, -6, 9, 10, 12), 1000)]
    for values, count in batches:
        for k in range(count):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            zeros = 0.6 if k % 2 else 0.0
            m = [
                [0 if rng.random() < zeros else rng.choice(values) for _ in range(cols)]
                for _ in range(rows)
            ]
            ref = smith_normal_form(Matrix(m))
            want = [abs(ref[i, i]) for i in range(min(rows, cols)) if ref[i, i]]
            sparse = [{j: x for j, x in enumerate(row) if x} for row in m]
            kept = [dict(row) for row in sparse]
            assert sparse_smith_diagonal(sparse) == want, m
            assert sparse == kept  # the input is not changed
    assert sparse_smith_diagonal([]) == []
    assert sparse_smith_diagonal([{}, {}]) == []
    assert sparse_smith_diagonal([{3: 2}, {3: 4, 7: 6}]) == [2, 6]


@pytest.mark.parametrize(
    "name,expected",
    [
        ("T52", (0, [5])),
        ("T41", (0, [4])),
        ("S3_ONE_TET", (0, [])),
        ("DOUBLE", (0, [])),
    ],
)
def test_h1(name, expected):
    betti, torsion = h1(load(ALL_FIXTURES[name]))
    assert (betti, torsion) == expected
    assert isinstance(torsion, list)


def test_h1_requires_closed():
    with pytest.raises(NotClosedError):
        h1(load(CUSPED))
