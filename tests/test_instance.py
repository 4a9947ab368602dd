import copy
import hashlib
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splpo import (
    AdaConfig,
    GeneratorConfig,
    Instance,
    InstanceFormatError,
    ProblemSpec,
    facility_sort_keys,
    generate_instance,
    heuristic_hc,
    parse_instance,
    parse_orlib,
    vfh,
    write_instance,
)

import splpo.instance as instance_module
from splpo.semilagrange import DualAscent, dual_ascent
from splpo.solution import open_mask
from conftest import random_instance

TOY_DOC = """SPLPO 1
2 2
3 1
2 5
4 2
1 2
2 1
"""


def test_parse_toy_document():
    inst = parse_instance(TOY_DOC)
    assert inst.m == 2 and inst.n == 2
    assert np.array_equal(inst.f, [3, 1])
    assert np.array_equal(inst.c, [[2, 5], [4, 2]])
    assert np.array_equal(inst.p, [[1, 2], [2, 1]])
    # cp recomputed independently of the ladder's top rung
    cp = [max(inst.c[i, j] + inst.f[j] for j in range(2)) for i in range(2)]
    assert cp == [6, 7]
    assert np.array_equal(DualAscent(inst, np.zeros(2)).rungs[:, -1], cp)


def test_parse_rejects_non_permutation_row():
    doc = TOY_DOC.replace("1 2\n2 1\n", "1 1\n2 1\n")
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(doc)
    assert "row 1 is not a permutation" in str(err.value)
    assert err.value.line == 6


@pytest.mark.parametrize(
    "old, new, line",
    [("3 1", "3 inf", 3), ("2 5", "nan 5", 4), ("4 2", "4 -inf", 5), ("4 2", "4 NaN", 5)],
)
def test_parse_rejects_non_finite_costs(old, new, line):
    with pytest.raises(InstanceFormatError, match="non-finite") as err:
        parse_instance(TOY_DOC.replace(old, new, 1))
    assert err.value.line == line


def test_parse_minimal_instance():
    inst = parse_instance("SPLPO 1\n1 1\n0\n0\n1\n")
    assert inst.m == inst.n == 1
    assert inst.f[0] == 0 and inst.c[0, 0] == 0 and inst.p[0, 0] == 1


@pytest.mark.parametrize(
    "mangle, fragment",
    [
        (lambda d: d.replace("SPLPO 1", "SPLP 1"), "header"),
        (lambda d: d.replace("2 2", "2"), "dimension"),
        (lambda d: d.replace("3 1", "3 1 7"), "opening-cost"),
        (lambda d: d.replace("2 5", "-2 5"), "negative cost"),
        (lambda d: d.replace("4 2\n", ""), "expected"),
    ],
)
def test_parse_errors_carry_line_numbers(mangle, fragment):
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(mangle(TOY_DOC))
    assert fragment in str(err.value)
    assert err.value.line is not None


def _token_docs():
    # Tokens float() accepts besides plain integers, in every block.
    yield TOY_DOC.replace("3 1", "1e3 +5").replace("2 5", "1_000 -0").replace("1 2\n", "1.0 2e0\n")
    yield TOY_DOC.replace("4 2", "4.5e-3 .25").replace("2 1\n", "+2 0001\n")


def _float_instance(doc):
    """The document's Instance, built from float() of each token after the header."""
    rows = [[float(t) for t in ln.split()] for ln in doc.splitlines()[1:] if ln.strip()]
    m = int(rows[0][0])
    return Instance(f=np.array(rows[1]), c=np.array(rows[2:2 + m]), p=np.array(rows[2 + m:]))


def test_parse_reads_every_valid_document_as_float_does():
    docs = [TOY_DOC, *_token_docs()]
    for mode in ("uniform", "cost-consistent"):
        docs += [write_instance(generate_instance(m, n, seed, GeneratorConfig(mode=mode)))
                 for m, n, seed in ((1, 1, 1), (4, 3, 2), (75, 50, 3))]
    rng = np.random.default_rng(0)
    docs.append(write_instance(Instance(f=rng.uniform(0, 9, 6), c=rng.uniform(0, 9, (5, 6)),
                                        p=np.array([rng.permutation(6) + 1 for _ in range(5)]))))
    for doc in docs:
        parsed, ref = parse_instance(doc), _float_instance(doc)
        for a, b in ((parsed.f, ref.f), (parsed.c, ref.c), (parsed.p, ref.p)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Each document is TOY_DOC with every (old, new) replaced once; a fault is
# reported as the first in document order, with the line it sits on. Row by
# row, a row's text (its token count, then each token in turn) is checked
# before its values.
PARSE_FAULTS = [
    ("repeated-rank", [("1 2\n", "1 1\n")], "preference row 1 is not a permutation of 1..2", 6),
    ("fractional-rank", [("1 2\n", "1 2.5\n")],
     "preference row 1 is not a permutation of 1..2", 6),
    ("zero-rank", [("2 1\n", "0 2\n")], "preference row 2 is not a permutation of 1..2", 7),
    ("huge-rank", [("2 1\n", "1e300 1\n")], "preference row 2 is not a permutation of 1..2", 7),
    ("long-preference-row", [("2 1\n", "2 1 3\n")], "preference row 2 has 3 values, expected 2", 7),
    ("negative-opening-cost", [("3 1", "-3 1")], "negative cost in opening-cost row", 3),
    ("negative-service-cost", [("4 2", "4 -0.5")], "negative cost in service-cost row 2", 5),
    ("nan-service-cost", [("2 5", "2 nan")], "non-finite number 'nan' in service-cost row 1", 4),
    ("overflowing-service-cost", [("2 5", "2 1e999")],
     "non-finite number '1e999' in service-cost row 1", 4),
    ("hex-service-cost", [("4 2", "4 0x10")], "bad number '0x10' in service-cost row 2", 5),
    ("word-rank", [("2 1\n", "2 one\n")], "bad number 'one' in preference row 2", 7),
    ("long-opening-row", [("3 1", "3 1 7")], "opening-cost row 1 has 3 values, expected 2", 3),
    ("word-opening-cost", [("3 1", "3 x")], "bad number 'x' in opening-cost row 1", 3),
    ("infinite-opening-cost", [("3 1", "3 inf")],
     "non-finite number 'inf' in opening-cost row 1", 3),
    ("short-service-row", [("2 5", "2")], "service-cost row 1 has 1 values, expected 2", 4),
    ("infinite-rank", [("2 1\n", "2 inf\n")], "non-finite number 'inf' in preference row 2", 7),
    ("negative-rank", [("1 2\n", "-1 2\n")], "preference row 1 is not a permutation of 1..2", 6),
    ("negative-then-word-service-cost", [("2 5", "-2 5"), ("4 2", "4 x")],
     "negative cost in service-cost row 1", 4),
    ("negative-opening-cost-then-word-rank", [("3 1", "-3 1"), ("2 1\n", "2 one\n")],
     "negative cost in opening-cost row", 3),
    ("repeated-then-word-rank", [("1 2\n", "1 1\n"), ("2 1\n", "2 x\n")],
     "preference row 1 is not a permutation of 1..2", 6),
    ("word-then-negative-service-cost", [("2 5", "x 5"), ("4 2", "-4 2")],
     "bad number 'x' in service-cost row 1", 4),
    ("negative-and-word-in-one-row", [("3 1", "-3 x")], "bad number 'x' in opening-cost row 1", 3),
    ("infinite-then-word", [("3 1", "inf x")], "non-finite number 'inf' in opening-cost row 1", 3),
    ("negative-row-too-long", [("2 5", "-1 -1 -1")],
     "service-cost row 1 has 3 values, expected 2", 4),
]


@pytest.mark.parametrize("edits, message, line", [case[1:] for case in PARSE_FAULTS],
                         ids=[case[0] for case in PARSE_FAULTS])
def test_parse_reports_the_first_fault_and_its_line(edits, message, line):
    doc = TOY_DOC
    for old, new in edits:
        assert old in doc
        doc = doc.replace(old, new, 1)
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(doc)
    assert str(err.value) == f"line {line}: {message}" and err.value.line == line


def test_write_parse_round_trip_toy():
    inst = parse_instance(TOY_DOC)
    assert parse_instance(write_instance(inst)) == inst


def test_write_parse_round_trip_generated():
    inst = generate_instance(7, 5, seed=42)
    again = parse_instance(write_instance(inst))
    assert again == inst
    # idempotent: writing the reparsed instance gives identical bytes
    assert write_instance(again) == write_instance(inst)


def test_write_minimal_document_shape():
    inst = Instance(f=np.zeros(1), c=np.zeros((1, 1)), p=np.ones((1, 1), dtype=int))
    doc = write_instance(inst)
    assert doc.splitlines() == ["SPLPO 1", "1 1", "0", "0", "1"]


def test_fractional_costs_round_trip():
    inst = Instance(
        f=np.array([0.125, 2.0]),
        c=np.array([[0.1, 2.30000007], [1e-9, 3.0]]),
        p=np.array([[1, 2], [2, 1]]),
    )
    again = parse_instance(write_instance(inst))
    assert np.allclose(again.f, inst.f, rtol=1e-12)
    assert np.allclose(again.c, inst.c, rtol=1e-12)


def _reference_write(inst):
    """The per-value writer that write_instance replaced, kept as its byte oracle."""
    def fmt(v):
        fv = float(v)
        if fv.is_integer() and abs(fv) < 2**53:
            return str(int(fv))
        return repr(fv)
    lines = ["SPLPO 1", f"{inst.m} {inst.n}", " ".join(fmt(v) for v in inst.f)]
    lines += [" ".join(fmt(v) for v in row) for row in inst.c]
    lines += [" ".join(str(int(v)) for v in row) for row in inst.p]
    return "\n".join(lines) + "\n"


# Integral values on both sides of 2**53, huge and subnormal ones, and -0.0.
EDGE_COSTS = [0.0, -0.0, 1.0, 0.5, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 2.0**60, 1e300,
              5e-324, 1e-310, 2.2250738585072014e-308, 0.1, 1e16, 1e22]
_cost = st.one_of(st.sampled_from(EDGE_COSTS), st.integers(0, 2**53).map(float),
                  st.floats(0, 1e300))


@st.composite
def _instances(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    row = st.lists(_cost, min_size=n, max_size=n)
    rows = st.lists(row, min_size=m, max_size=m)
    ranks = st.lists(st.permutations(range(1, n + 1)), min_size=m, max_size=m)
    return Instance(f=np.array(draw(row)), c=np.array(draw(rows)), p=np.array(draw(ranks)))


@settings(max_examples=200)
@given(_instances())
def test_writer_matches_the_per_value_writer_byte_for_byte(inst):
    assert write_instance(inst) == _reference_write(inst)


def test_writer_edge_values():
    n = len(EDGE_COSTS)
    f = np.array(EDGE_COSTS)
    inst = Instance(f=f, c=np.stack([f, f[::-1]]), p=np.stack([np.arange(1, n + 1)] * 2))
    doc = write_instance(inst)
    assert doc == _reference_write(inst)
    assert doc.splitlines()[2].split()[:6] == ["0", "0", "1", "0.5", str(2**53 - 1),
                                               "9007199254740992.0"]


# sha256 of the c, f and p bytes, recorded from the per-row generator that
# drew each customer's preferences in its own call; the whole-array draws
# must consume the stream the same way. The last field is a factor the test
# applies to c and f before hashing: five digests were recorded on costs
# three times the generator's.
GENERATOR_DIGESTS = [
    (1, 1, 0, dict(mode="uniform"),
     "af1b907bbd9ca0486c63dd5ea0ced45b8fb2ea9df8a50b49a7c32d368c1ca7d7", 1),
    (1, 1, 4, dict(mode="cost-consistent"),
     "fa714e8c326df8d7f77b0d7f0c7778694fad2b18eb721a245922a60f851fe015", 3),
    (1, 9, 2, dict(mode="uniform"),
     "d3fe775f8d02f63d2c620908818f92cc69b1c5e4b15336c2e8d1f1c8592a6d39", 3),
    (1, 9, 2, dict(mode="cost-consistent"),
     "775c76c3cf2cb28ebc6e528d5384da6bcbe142064de34d88ebf20ff8301abccd", 1),
    (9, 1, 5, dict(mode="uniform"),
     "6eb24d6ea2110c1672610b2a957c54e9c0a1a62ee46a17750d716f09bf513cfc", 1),
    (9, 1, 5, dict(mode="cost-consistent"),
     "43ecfebe906ee5ef432b363e0aa5aab19bcd939b36d09c5eefb009f06ee30393", 3),
    (2, 2, 1, dict(mode="uniform"),
     "8e31a008e299b74a7c3d32dcce32dfda530e9f4144ec8be8051124d912219b8f", 1),
    (7, 5, 3, dict(mode="cost-consistent"),
     "cae2ef1c1eb44fd52df07645a7d4268945831b699537ecec058925d092d04115", 1),
    (13, 17, 0, dict(mode="uniform"),
     "438f981bda365afa689c584407cbec3f5bbb8ea6e96431b03a37b33be4f161ba", 3),
    (17, 13, 4, dict(mode="cost-consistent"),
     "bee50c03067d9b4a36a69d37eb3ec5b536ed4362744e9e45358ecd699058dfe8", 3),
    (75, 50, 1, dict(mode="cost-consistent"),
     "4d00dc38bf37e771a5d26397ae330893eef014f96a77b7c11b8ad8af03adfa90", 1),
    (60, 40, 2, dict(mode="uniform"),
     "f3c1541f23087ff6697c6fff128e9e1c19760ab9cf924f8e00914994d9ad5e6d", 1),
    (30, 20, 3, dict(mode="cost-consistent", cost_range=(1, 3)),
     "ed000f51ece3de8e9ae1343c84469cd0262c7d70cda5278a19b891f715637688", 1),
]


@pytest.mark.parametrize("m, n, seed, config, digest, factor", GENERATOR_DIGESTS)
def test_generator_output_is_pinned(m, n, seed, config, digest, factor):
    inst = generate_instance(m, n, seed, GeneratorConfig(**config))
    data = (inst.c * factor).tobytes() + (inst.f * factor).tobytes() + inst.p.tobytes()
    assert hashlib.sha256(data).hexdigest() == digest
    assert write_instance(inst) == _reference_write(inst)


def test_constructor_validation():
    with pytest.raises(ValueError, match="permutation"):
        Instance(f=np.zeros(2), c=np.zeros((1, 2)), p=np.array([[1, 1]]))
    with pytest.raises(ValueError, match="preference row 2 is"):
        Instance(f=np.zeros(2), c=np.zeros((3, 2)), p=np.array([[1, 2], [2, 2], [0, 1]]))
    with pytest.raises(ValueError, match="negative"):
        Instance(f=np.array([-1.0]), c=np.zeros((1, 1)), p=np.array([[1]]))
    with pytest.raises(ValueError, match="non-finite opening"):
        Instance(f=[1.0, np.inf], c=[[1.0, 2.0], [2.0, 3.0]], p=[[1, 2], [2, 1]])
    with pytest.raises(ValueError, match="non-finite service"):
        Instance(f=[1.0, 2.0], c=[[1.0, np.nan], [2.0, 3.0]], p=[[1, 2], [2, 1]])
    with pytest.raises(ValueError):
        Instance(f=np.zeros(2), c=np.zeros((0, 2)), p=np.zeros((0, 2), dtype=int))


def test_generator_deterministic_and_valid():
    a = generate_instance(50, 50, seed=1)
    b = generate_instance(50, 50, seed=1)
    assert a == b
    assert a.p.shape == (50, 50)
    expected = np.arange(1, 51)
    for i in range(50):
        assert np.array_equal(np.sort(a.p[i]), expected)
    assert generate_instance(50, 50, seed=2) != a


def test_generator_cost_consistent_mode():
    inst = generate_instance(2, 2, seed=7, params=GeneratorConfig(mode="cost-consistent"))
    # ranks sorted by preference must list costs in non-decreasing order
    for i in range(inst.m):
        by_rank = inst.c[i][np.argsort(inst.p[i])]
        assert np.all(np.diff(by_rank) >= 0)


def test_generator_rejects_bad_dims():
    with pytest.raises(ValueError):
        generate_instance(0, 5, seed=1)


@pytest.mark.parametrize("args, name", [
    ((True, 3, 1), "m"), ((2.5, 3, 1), "m"), ((0, 3, 1), "m"), (("4", 3, 1), "m"),
    ((3, False, 1), "n"), ((3, -1, 1), "n"), ((3, np.float64(2.0), 1), "n"),
    ((3, 2, 1.5), "seed"), ((3, 2, True), "seed"), ((3, 2, -1), "seed"), ((3, 2, None), "seed"),
])
def test_generator_rejects_malformed_arguments(args, name):
    # Each fault is a ValueError that names the argument, raised before any draw.
    with pytest.raises(ValueError, match=f"^{name} must be a"):
        generate_instance(*args)


def test_generator_takes_numpy_integers():
    inst = generate_instance(np.int64(3), np.array(2), np.uint8(1))
    assert inst == generate_instance(3, 2, 1) and inst.m == 3


def test_integer_settings_take_one_rule_and_are_stored_as_ints():
    # A 0-d integer array is an integer everywhere (operator.index accepts
    # it), a bool nowhere, and every accepted value is kept as an int.
    three = np.array(3)
    gen = GeneratorConfig(cost_range=[np.int8(1), three], open_range=(three, 4))
    assert (gen.cost_range, gen.open_range) == ((1, 3), (3, 4))
    inst = generate_instance(3, 4, 1)
    ascent = DualAscent(inst, np.zeros(inst.m), node_limit=np.int32(7))
    assert dual_ascent(inst, np.zeros(inst.m), max_iter=three).iterations <= 3
    ada_cfg = AdaConfig(sg_iter=three, da_iter=np.int16(1), node_limit=three)
    spec = ProblemSpec.splpo(inst, forced_open=[np.int64(3), np.uint8(0)])
    values = [*gen.cost_range, *gen.open_range, ascent.node_limit,
              ada_cfg.sg_iter, ada_cfg.da_iter, ada_cfg.node_limit, *spec.forced_open]
    assert {type(v) for v in values} == {int}
    assert spec.forced_open == {0, 3}
    for make in (lambda v: GeneratorConfig(cost_range=(1, v)),
                 lambda v: dual_ascent(inst, np.zeros(inst.m), max_iter=v),
                 lambda v: DualAscent(inst, np.zeros(inst.m), node_limit=v)):
        with pytest.raises(ValueError):
            make(np.array(True))
        with pytest.raises(ValueError):
            make(np.array([3]))


@pytest.mark.parametrize("bad", [-1, 4, 1.0, True, "2"])
def test_every_list_of_site_ids_takes_one_check(bad):
    # An open set, a fixing input and a forced-open set name their sites
    # alike, and a fault in any reads the same.
    inst = generate_instance(3, 4, 1)
    for name, use in (("open facilities", lambda ids: open_mask(inst, ids)),
                      ("y_gamma", lambda ids: vfh(inst, ids)),
                      ("forced_open", lambda ids: ProblemSpec.splpo(inst, forced_open=ids))):
        message = f"{name} holds [{bad!r}], which are not sites 0..3"
        with pytest.raises(ValueError, match=re.escape(message)):
            use([0, bad])
    ids = instance_module.check_sites("ids", [np.int64(3), 0], 4)
    assert ids == [3, 0] and {type(j) for j in ids} == {int}


def test_configs_and_specs_are_immutable_and_copy_through_their_constructors():
    spec = ProblemSpec.splpo(generate_instance(3, 4, 1), forced_open=[1])
    for obj in (GeneratorConfig(open_range=(5, 9)), AdaConfig(da_iter=5), spec):
        for name in type(obj).__slots__:
            with pytest.raises(AttributeError, match=name):
                setattr(obj, name, None)
            with pytest.raises(AttributeError, match=name):
                delattr(obj, name)
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj) and twin == obj
            assert twin.asdict().keys() == obj.asdict().keys()
    assert {AdaConfig(), AdaConfig()} == {AdaConfig()}


@pytest.mark.parametrize("settings", [
    {"open_range": (True, 4)}, {"open_range": (3, 2)}, {"cost_range": "12"},
    {"open_range": None}, {"cost_range": (5, 4)}, {"cost_range": (-1, 4)}, {"cost_range": (1.5, 4)},
    {"cost_range": (1, 2, 3)}, {"open_range": 7}, {"open_range": (0, float("nan"))},
])
def test_generator_config_rejects_bad_settings(settings):
    (name,) = settings
    with pytest.raises(ValueError, match=name):
        GeneratorConfig(**settings)


def test_generator_config_accepts_integer_pairs():
    cfg = GeneratorConfig(cost_range=(0, 0), open_range=[np.int64(3), 3])
    inst = generate_instance(2, 3, seed=1, params=cfg)
    assert np.array_equal(inst.c, np.zeros((2, 3))) and np.array_equal(inst.f, [3.0] * 3)


@given(st.integers(0, 2000))
def test_round_trip_property(seed):
    inst = random_instance(seed)
    assert parse_instance(write_instance(inst)) == inst


# The cost ladder dual ascent climbs: rungs[i, r-1] is customer i's r-th
# cheapest cost plus an offset, capped at cp[i], and cp[i] on the top rung.
# The offset is half the smallest positive gap between two sorted costs of
# one customer.


def test_cost_ladder_toy(toy):
    # Sorted costs [2, 5] and [2, 4]: the offset is 1, and cp is [6, 7].
    rungs = DualAscent(toy, np.zeros(2)).rungs
    assert np.array_equal(rungs, [[3.0, 6.0, 6.0], [3.0, 5.0, 7.0]])


def test_cost_ladder_uniform():
    inst = Instance(
        f=np.zeros(3),
        c=np.full((2, 3), 5.0),
        p=np.array([[1, 2, 3], [3, 1, 2]]),
    )
    # Every rung is capped at cp = 5.
    assert np.all(DualAscent(inst, np.zeros(2)).rungs == 5.0)


def test_cost_ladder_dominates_costs():
    # The second instance opens its costliest site for free, so each
    # customer's costliest rung is capped at its cp: offset 1.5, cp [4, 6].
    capped = Instance(f=[2.0, 0.0], c=[[1.0, 4.0], [3.0, 6.0]], p=[[1, 2], [2, 1]])
    assert np.array_equal(DualAscent(capped, np.zeros(2)).rungs, [[2.5, 4.0, 4.0],
                                                                  [4.5, 6.0, 6.0]])
    # On 5x5 seed 3 the smallest positive gap is 2, so the offset is 1.
    for inst, offset in ((generate_instance(5, 5, seed=3), 1.0), (capped, 1.5)):
        rungs = DualAscent(inst, np.zeros(inst.m)).rungs
        for i in range(inst.m):
            cp = max(inst.c[i, j] + inst.f[j] for j in range(inst.n))
            direct = [min(v + offset, cp) for v in sorted(inst.c[i])]
            assert np.array_equal(rungs[i], direct + [cp])
            assert cp >= max(inst.c[i])


def test_default_epsilon():
    inst = parse_instance(TOY_DOC)
    # gaps: customer 0 has 3, customer 1 has 2 -> eps = 1
    assert np.array_equal(DualAscent(inst, np.zeros(2)).rungs[:, 0], [3.0, 3.0])
    # No gap at all: eps = 1e-6 (1 + the largest cost).
    flat = Instance(f=np.full(2, 5.0), c=np.zeros((1, 2)), p=np.array([[1, 2]]))
    assert DualAscent(flat, np.zeros(1)).rungs[0, 0] == pytest.approx(1e-6)


def test_facility_sort_keys(toy):
    assert np.array_equal(facility_sort_keys(toy), [12.0, 9.0])


def test_orlib_import():
    core = """3 2
100 120
capacity 95.5
50 110
10
4 6 8
20
9 7 5
"""
    pref = "1 3 2\n2 1 3\n"
    inst = parse_orlib(core, pref)
    assert inst.m == 2 and inst.n == 3
    assert np.array_equal(inst.f, [120, 95.5, 110])
    assert np.array_equal(inst.c, [[4, 6, 8], [9, 7, 5]])
    assert np.array_equal(inst.p, [[1, 3, 2], [2, 1, 3]])


def test_orlib_rejects_short_sidecar():
    with pytest.raises(InstanceFormatError, match="sidecar"):
        parse_orlib("1 1\n10 20\n5\n7\n", "1 2")


ORLIB_CORE = "3 2\n100 120\ncapacity 95.5\n50 110\n10\n4 6 8\n20\n9 7 5\n"
ORLIB_PREF = "1 3 2\n2 1 3\n"


@pytest.mark.parametrize("core, pref, message", [
    (ORLIB_CORE.replace("3 2", "2.5 2", 1), ORLIB_PREF,
     "warehouse count must be a positive integer, got '2.5'"),
    (ORLIB_CORE + "7\n", ORLIB_PREF, "unexpected '7' after the allocation costs of customer 2"),
    (ORLIB_CORE, ORLIB_PREF.replace("1 3 2", "1.5 3 2"),
     "preference sidecar value 1 must be an integer in 1..3, got '1.5'"),
    (ORLIB_CORE.replace("3 2", "3 -1", 1), ORLIB_PREF,
     "customer count must be a positive integer, got '-1'"),
    (ORLIB_CORE, "1 1 2\n2 1 3\n", "preference sidecar row 1 is not a permutation of 1..3"),
    (ORLIB_CORE[:-2], ORLIB_PREF, "unexpected end of file reading allocation cost (2, 3)"),
    (ORLIB_CORE.replace("9 7", "9 x"), ORLIB_PREF, "bad number 'x' reading allocation cost (2, 2)"),
    (ORLIB_CORE.replace("100 120", "100 -120", 1), ORLIB_PREF,
     "fixed cost of warehouse 1 must be a finite nonnegative number, got '-120'"),
    (ORLIB_CORE.replace("4 6 8", "4 inf 8"), ORLIB_PREF,
     "allocation cost (1, 2) must be a finite nonnegative number, got 'inf'"),
], ids=["fractional-count", "trailing-values", "fractional-rank", "negative-count",
        "repeated-rank", "cut-short", "non-numeric-cost", "negative-fixed-cost",
        "non-finite-allocation-cost"])
def test_orlib_names_the_malformed_field(core, pref, message):
    parse_orlib(ORLIB_CORE, ORLIB_PREF)  # the unmodified files are well formed
    with pytest.raises(InstanceFormatError) as info:
        parse_orlib(core, pref)
    assert str(info.value) == message


TOY_F, TOY_C, TOY_P = [3.0, 1.0], [[2.0, 5.0], [4.0, 2.0]], [[1, 2], [2, 1]]


@pytest.mark.parametrize("make, message", [
    (lambda: Instance(f=TOY_F, c=[2.0, 5.0], p=TOY_P), "c must be a 2-d cost matrix"),
    (lambda: Instance(f=[3.0, 1.0, 2.0], c=TOY_C, p=TOY_P), "f must have shape (2,), got (3,)"),
    (lambda: Instance(f=TOY_F, c=TOY_C, p=[[1, 2, 3], [3, 2, 1]]),
     "p must have shape (2, 2), got (2, 3)"),
    (lambda: Instance(f=TOY_F, c=[[2.0, -5.0], [4.0, 2.0]], p=TOY_P), "negative service cost"),
    (lambda: parse_instance(""), "empty document"),
    (lambda: parse_instance("SPLPO 1\n\n"), "line 1: missing dimension line"),
    (lambda: parse_instance("SPLPO 1\n0 3\n"), "line 2: dimensions must be positive, got 0 3"),
    (lambda: GeneratorConfig(mode="x"), "unknown generator mode 'x'"),
], ids=["one-dim-c", "f-shape", "p-shape", "negative-service", "empty-document",
        "no-dimension-line", "zero-dimension", "generator-mode"])
def test_malformed_input_raises_its_message(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_instance_arrays_are_read_only(toy):
    for array in (toy.f, toy.c, toy.p, toy.facility_of_rank, *toy.flat_rank_index, toy.cT,
                  toy.pT):
        with pytest.raises(ValueError):
            array[0] = 0


def test_instance_copies_and_pickles_rebuild_through_the_constructor():
    inst = generate_instance(60, 40, 1, name="g")
    fresh = pickle.dumps(inst)
    heuristic_hc(inst)  # fills the derived data: the layouts and the greedy sweep
    inst.flat_rank_index
    assert pickle.dumps(inst) == fresh
    for twin in (copy.copy(inst), copy.deepcopy(inst), pickle.loads(fresh)):
        assert type(twin) is Instance and twin == inst and twin.name == "g"
        assert sorted(vars(twin)) == ["c", "f", "name", "p"]
        for array in (twin.f, twin.c, twin.p, twin.cT):
            assert not array.flags.writeable


def test_facility_major_layout_is_built_once():
    inst = generate_instance(7, 5, 3)
    assert inst.cT is inst.cT and inst.pT is inst.pT
    assert inst.cT.flags.c_contiguous and inst.pT.flags.c_contiguous
    assert inst.cT.dtype == np.float64 and np.array_equal(inst.cT, inst.c.T)
    assert inst.pT.dtype == np.int32 and np.array_equal(inst.pT, inst.p.T)


@pytest.mark.parametrize("p", [
    [[1.5, 2.9]], [[1.0, np.nan]], [[True, 2]], [[np.True_, 2]], np.array([[True, False]]),
    np.array([[2.0, 1.5]]),
])
def test_constructor_rejects_ranks_a_cast_would_change(p):
    # Cast to int64, [[1.5, 2.9]] would read as [[1, 2]] and True as rank 1.
    with pytest.raises(ValueError, match="p must hold integer ranks"):
        Instance(f=[1, 1], c=[[1, 2]], p=p)


def test_constructor_takes_whole_float_ranks():
    for p in ([[2.0, 1.0]], np.array([[2.0, 1.0]]), np.array([[2, 1]], dtype=np.int32)):
        inst = Instance(f=[1, 1], c=[[1, 2]], p=p)
        assert inst.p.dtype == np.int64 and inst.p.tolist() == [[2, 1]]


def test_flat_rank_index_orders_worst_first_and_back():
    inst = generate_instance(5, 4, 2)
    to_rank, to_site = inst.flat_rank_index
    a = np.arange(20.0).reshape(5, 4)
    by_rank = a.take(to_rank)
    for i in range(5):
        assert list(by_rank[i]) == [a[i, j] for j in np.argsort(-inst.p[i])]
    assert np.array_equal(by_rank.take(to_site), a)
