import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tables as rt
from label_strategies import labels
from quantakit import relalg
from quantakit.gates import xor_table
from quantakit.relalg import (
    BIT,
    BasisMismatchError,
    FinBasis,
    Rel,
    SizeLimitError,
    bang,
    compose,
    converse,
    coproduct_basis,
    direct_sum,
    either,
    from_function,
    gamma,
    identity,
    image,
    inj1,
    inj2,
    is_bijection,
    is_difunctional,
    is_equivalence,
    is_function,
    is_injective,
    is_surjective,
    kernel,
    leq_injectivity,
    meet,
    minimal_complements,
    pair,
    pair_label,
    product_basis,
    quotient,
    subset,
    u_construct,
    xor_monoid,
)
from reference import relalg as ref
from reference.relalg import ref_minimal_complements

BB = product_basis(BIT, BIT)
B3 = FinBasis(("a", "b", "c"))
B5 = FinBasis(tuple("pqrst"))

XOR = from_function(xor_table(), BB, BIT)
FST = from_function(lambda l: relalg.split_pair(l)[0], BB, BIT)
SND = from_function(lambda l: relalg.split_pair(l)[1], BB, BIT)
NOT = from_function({"0": "1", "1": "0"}, BIT, BIT)
CNOT = pair(FST, XOR)


def rel_from_rows(rows, src=None, tgt=None):
    rows = np.array(rows, dtype=bool)
    src = src or FinBasis(tuple(str(i) for i in range(rows.shape[1])))
    tgt = tgt or FinBasis(tuple(str(i) for i in range(rows.shape[0])))
    return Rel(src, tgt, rows)


def random_rel(rng, src, tgt, p=0.5):
    return Rel(src, tgt, rng.random((len(tgt), len(src))) < p)


bool_matrices_5x5 = st.lists(
    st.lists(st.booleans(), min_size=5, max_size=5), min_size=5, max_size=5
)


class TestBasics:
    def test_basis_rejects_duplicates(self):
        with pytest.raises(ValueError, match=r"^basis labels must be pairwise distinct$"):
            FinBasis(("x", "x"))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_basis_equality_and_hash_follow_the_label_tuples(self, data):
        xs = data.draw(st.lists(labels, max_size=4, unique=True))
        ys = data.draw(st.one_of(st.just(list(xs)), st.permutations(xs), st.lists(labels, max_size=4, unique=True)))
        a, b = FinBasis(tuple(xs)), FinBasis(ys)
        same = tuple(xs) == tuple(ys)
        assert (a == b) is same and (b == a) is same and (a != b) is not same
        assert a == a and not a != a
        assert hash(a) == hash(a) == hash((tuple(xs),))
        if same:
            assert hash(a) == hash(b)
            assert {a: 1}[b] == 1
        assert a != tuple(xs) and a.__eq__(tuple(xs)) is NotImplemented

    def test_basis_hash_is_computed_on_first_use_and_kept(self):
        a = FinBasis(("x", "y"))
        assert "_hash" not in vars(a)
        h = hash(a)
        assert vars(a)["_hash"] == h == hash((("x", "y"),))
        object.__setattr__(a, "_hash", 12345)  # later calls return the kept value
        assert hash(a) == 12345

    def test_rel_shape_checked(self):
        with pytest.raises(ValueError):
            Rel(BIT, BIT, np.zeros((3, 2), dtype=bool))

    def test_product_basis_row_major(self):
        assert product_basis(BIT, BIT).labels == rt.PAIR_LABELS_4

    def test_coproduct_basis_orders_tags(self):
        assert coproduct_basis(BIT, BIT).labels == ("i1(0)", "i1(1)", "i2(0)", "i2(1)")

    def test_product_and_coproduct_bases_are_built_once_per_pair(self):
        a, b = FinBasis(("x", "y")), FinBasis(("p", "q", "r"))
        assert product_basis(a, b) is product_basis(a, b)
        assert product_basis(a, b) is product_basis(FinBasis(("x", "y")), FinBasis(("p", "q", "r")))
        assert coproduct_basis(a, b) is coproduct_basis(a, b)
        assert product_basis(b, a) is not product_basis(a, b)

    def test_label_split_nesting(self):
        assert relalg.split_pair("([0,1],1)") == ("[0,1]", "1")
        assert relalg.split_list("[(0,0),(1,1)]") == ("(0,0)", "(1,1)")
        assert relalg.split_list("[]") == ()


class TestCompose:
    def test_identity_is_unit(self):
        assert compose(identity(BIT), XOR) == XOR
        assert compose(XOR, identity(BB)) == XOR

    def test_kernel_of_xor_matches_pinned_matrix(self):
        assert compose(converse(XOR), XOR) == rel_from_rows(rt.XOR_KERNEL, BB, BB)

    def test_against_exists_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            r = random_rel(rng, B5, B5)
            s = random_rel(rng, B5, B5)
            got = compose(r, s)
            for b in B5:
                for a in B5:
                    want = any(
                        r.holds(b, c) and s.holds(c, a) for c in B5
                    )
                    assert got.holds(b, a) == want

    def test_mismatch_raises(self):
        with pytest.raises(BasisMismatchError, match=r"^compose: target of s must equal source of r$"):
            compose(XOR, XOR)


class TestConverse:
    def test_identity(self):
        assert converse(identity(BIT)) == identity(BIT)

    def test_fst_transposes(self):
        assert converse(FST) == rel_from_rows(
            np.array(rt.FST_MATRIX).T, BIT, BB
        )

    @given(bool_matrices_5x5)
    def test_involution(self, rows):
        r = rel_from_rows(rows, B5, B5)
        assert converse(converse(r)) == r


class TestKernelImage:
    def test_kernel_of_xor(self):
        assert kernel(XOR) == rel_from_rows(rt.XOR_KERNEL, BB, BB)

    def test_kernel_of_identity(self):
        assert kernel(identity(B3)) == identity(B3)

    def test_kernel_of_function_is_equivalence(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            table = {x: B3.labels[rng.integers(3)] for x in B5}
            f = from_function(table, B5, B3)
            assert is_equivalence(kernel(f))

    def test_bijection_characterization(self):
        assert kernel(CNOT) == identity(BB) and image(CNOT) == identity(BB)
        assert is_bijection(CNOT)
        assert not (kernel(XOR) == identity(BB))


class TestPair:
    def test_fst_xor_is_cnot(self):
        assert CNOT == rel_from_rows(rt.CNOT_4, BB, product_basis(BIT, BIT))

    def test_pair_with_self_keeps_kernel(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            r = random_rel(rng, B3, BIT)
            assert kernel(pair(r, r)) == kernel(r)

    def test_kernel_of_pair_is_meet(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            r = random_rel(rng, B3, BIT)
            s = random_rel(rng, B3, B3)
            assert kernel(pair(r, s)) == meet(kernel(r), kernel(s))

    def test_source_mismatch(self):
        with pytest.raises(BasisMismatchError, match=r"^pair: relations must share their source$"):
            pair(XOR, NOT)


class TestEitherSum:
    def test_sum_definition(self):
        rng = np.random.default_rng(9)
        r = random_rel(rng, BIT, B3)
        s = random_rel(rng, B3, BIT)
        assert either(compose(inj1(B3, BIT), r), compose(inj2(B3, BIT), s)) == direct_sum(r, s)

    def test_cancellation(self):
        rng = np.random.default_rng(13)
        r = random_rel(rng, BIT, B3)
        s = random_rel(rng, BIT, B3)
        assert compose(either(r, s), inj1(BIT, BIT)) == r
        assert compose(either(r, s), inj2(BIT, BIT)) == s

    def test_exchange_law(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            r = random_rel(rng, BIT, BIT)
            s = random_rel(rng, BIT, B3)
            t = random_rel(rng, B3, BIT)
            v = random_rel(rng, B3, B3)
            assert either(pair(r, s), pair(t, v)) == pair(either(r, t), either(s, v))

    def test_target_mismatch(self):
        with pytest.raises(BasisMismatchError, match=r"^either: relations must share their target$"):
            either(XOR, identity(BB))


class TestGamma:
    def test_xor_after_gamma_is_junc_of_id_and_not(self):
        assert compose(XOR, gamma(BIT)) == either(identity(BIT), NOT)

    def test_gamma_is_iso(self):
        g = gamma(B3)
        assert compose(g, converse(g)) == identity(g.tgt)
        assert compose(converse(g), g) == identity(g.src)
        assert is_bijection(g)

    def test_cnot_transposes_gamma(self):
        lhs = compose(CNOT, gamma(BIT))
        rhs = compose(gamma(BIT), direct_sum(identity(BIT), NOT))
        assert lhs == rhs


class TestTaxonomy:
    def test_cnot_is_bijection(self):
        assert is_bijection(CNOT)

    def test_xor_surjective_not_injective(self):
        assert is_surjective(XOR)
        assert not is_injective(XOR)
        assert is_function(XOR)

    def test_one_per_column_is_function(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            table = {x: B5.labels[rng.integers(5)] for x in B5}
            assert is_function(from_function(table, B5, B5))


class TestInjectivityPreorder:
    def test_between_bang_and_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            table = {x: B3.labels[rng.integers(3)] for x in B5}
            f = from_function(table, B5, B3)
            assert leq_injectivity(f, identity(B5))
            assert leq_injectivity(bang(B5), f)

    def test_pairing_increases_injectivity(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            r = random_rel(rng, B5, BIT)
            s = random_rel(rng, B5, B3)
            assert leq_injectivity(r, pair(r, s))
            assert leq_injectivity(s, pair(s, r))

    def test_source_mismatch(self):
        with pytest.raises(BasisMismatchError, match=r"^leq_injectivity: relations must share their source$"):
            leq_injectivity(XOR, NOT)


class TestDifunctional:
    def test_pinned_counterexample(self):
        assert not is_difunctional(rel_from_rows(rt.NOT_DIFUNCTIONAL, BB, BB))

    def test_kernel_of_fst_is_difunctional(self):
        assert is_difunctional(kernel(FST))

    def test_column_criterion_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            r = random_rel(rng, B5, B3)
            cols = [r.entries[:, j] for j in range(len(B5))]
            want = all(
                not (c1 & c2).any() or (c1 == c2).all()
                for c1, c2 in itertools.combinations(cols, 2)
            )
            assert is_difunctional(r) == want


def all_partitions(n):
    if n == 0:
        yield ()
        return
    for rest in all_partitions(n - 1):
        x = n - 1
        for i, block in enumerate(rest):
            yield rest[:i] + (block + (x,),) + rest[i + 1 :]
        yield rest + ((x,),)


def class_layouts(n):
    """Every assignment of range(n) to classes, up to renaming the classes."""
    if n == 0:
        yield ()
        return
    for rest in class_layouts(n - 1):
        for c in range(max(rest, default=-1) + 2):
            yield rest + (c,)


def function_of_layout(cls):
    """The function sending element i to class cls[i]; a class no element
    takes still has its row, so class indices need not be contiguous."""
    src = FinBasis(tuple(f"a{i}" for i in range(len(cls))))
    tgt = FinBasis(tuple(f"c{c}" for c in range(max(cls, default=-1) + 1)))
    return from_function({x: f"c{c}" for x, c in zip(src, cls)}, src, tgt)


TWELVE_ELEMENT_PROFILES = [
    ((6, 6), 720),
    ((4, 4, 4), 9216),
    ((3, 3, 3, 3), 11880),
    ((5, 4, 3), 8640),
    ((3, 3, 2, 2, 2), 14688),
    ((2, 2, 2, 2, 2, 2), 7712),
    ((5, 1, 1, 1, 1, 1, 1, 1), 78125),
    ((4, 2, 1, 1, 1, 1, 1, 1), 49152),
]


def label_blocks(src, p):
    """The blocks of an index partition, in labels."""
    return tuple(tuple(src.labels[i] for i in b) for b in p)


class TestMinimalComplements:
    def test_xor_has_the_two_projection_partitions(self):
        got = {label_blocks(BB, p) for p in minimal_complements(XOR)}
        fst_blocks = (("(0,0)", "(0,1)"), ("(1,0)", "(1,1)"))
        snd_blocks = (("(0,0)", "(1,0)"), ("(0,1)", "(1,1)"))
        assert got == {fst_blocks, snd_blocks}

    def test_identity_needs_only_one_block(self):
        comps = minimal_complements(identity(B3))
        assert len(comps) == 1
        assert label_blocks(B3, comps[0]) == (("a", "b", "c"),)

    def test_and_gate_against_unpruned_oracle(self):
        and_fn = from_function(
            {l: "1" if l == "(1,1)" else "0" for l in BB}, BB, BIT
        )
        ker = kernel(and_fn).entries

        def keeps(p):
            return all(
                not ker[i, j]
                for block in p
                for i in block
                for j in block
                if i != j
            )

        kept = [p for p in all_partitions(4) if keeps(p)]

        want = {
            tuple(sorted(tuple(sorted(b)) for b in p))
            for p in kept
            if not any(ref._refines(p, q) and p != q for q in kept)
        }
        got = set()
        for p in minimal_complements(and_fn):
            blocks = label_blocks(BB, p)
            got.add(tuple(sorted(tuple(sorted(BB.index(x) for x in b)) for b in blocks)))
        assert got == want

    def test_outputs_restore_injectivity_and_are_maximal(self):
        for part in minimal_complements(XOR):
            q = quotient(BB, part)
            assert is_function(q)
            assert is_injective(pair(XOR, q))
            blocks = label_blocks(BB, part)
            for p in all_partitions(4):
                named = tuple(tuple(BB.labels[i] for i in b) for b in p)
                strictly_coarser = ref._refines(blocks, named) and set(
                    map(frozenset, named)
                ) != set(map(frozenset, blocks))
                if strictly_coarser:
                    e = _partition_rel(named)
                    assert not (meet(e, kernel(XOR)) == identity(BB))

    def test_size_limit(self):
        big = FinBasis(tuple(str(i) for i in range(13)))
        with pytest.raises(SizeLimitError, match=r"^domain has 13 elements; complement search capped at 12$"):
            minimal_complements(identity(big))

    def test_matches_the_reference_on_every_layout_up_to_six(self):
        layouts = [cls for n in range(7) for cls in class_layouts(n)]
        assert len(layouts) == 1 + 278
        for cls in layouts:
            f = function_of_layout(cls)
            got = minimal_complements(f)
            assert isinstance(got, tuple)
            assert tuple(quotient(f.src, p) for p in got) == ref_minimal_complements(f), cls

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, 7), min_size=7, max_size=8))
    def test_matches_the_reference_on_random_layouts(self, cls):
        f = function_of_layout(cls)
        got = tuple(quotient(f.src, p) for p in minimal_complements(f))
        assert got == ref_minimal_complements(f)

    def test_matches_the_walk_on_every_layout_up_to_seven(self):
        layouts = [cls for n in range(8) for cls in class_layouts(n)]
        assert len(layouts) == 1156
        for cls in layouts:
            want = tuple(sorted(ref._maximal_partitions(list(cls))))
            assert minimal_complements(function_of_layout(cls)) == want, cls

    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=9, max_size=12))
    def test_matches_the_walk_on_random_larger_layouts(self, cls):
        want = tuple(sorted(ref._maximal_partitions(cls)))
        assert minimal_complements(function_of_layout(cls)) == want

    @pytest.mark.parametrize(
        "sizes, count", TWELVE_ELEMENT_PROFILES, ids=[",".join(map(str, s)) for s, _ in TWELVE_ELEMENT_PROFILES]
    )
    def test_matches_the_walk_on_twelve_element_profiles(self, sizes, count):
        """Class sizes of 12 elements and their complement counts; the
        singleton-heavy ones are the search's product case."""
        cls = np.random.default_rng(list(sizes)).permutation(
            [c for c, s in enumerate(sizes) for _ in range(s)]).tolist()
        got = minimal_complements(function_of_layout(cls))
        assert len(got) == count
        assert got == tuple(sorted(ref._maximal_partitions(cls)))

    def test_injective_twelve_elements_need_one_block(self):
        f = function_of_layout(range(12))
        (p,) = minimal_complements(f)
        assert label_blocks(f.src, p) == (f.src.labels,)

    def test_four_classes_of_three_at_the_cap(self):
        f = function_of_layout([c for c in range(4) for _ in range(3)])
        comps = minimal_complements(f)
        assert len(comps) == 11880
        for p in comps[:: len(comps) // 50]:
            assert is_injective(pair(f, quotient(f.src, p)))

    def test_requires_function(self):
        with pytest.raises(ValueError, match=r"^minimal_complements requires a function$"):
            minimal_complements(kernel(XOR))


class TestQuotient:
    def test_sends_each_element_to_the_least_member_of_its_block(self):
        q = quotient(B5, [(4, 1), (3,), (2, 0)])
        assert sorted(q.pairs(), key=lambda p: B5.index(p[1])) == [
            ("p", "p"), ("q", "q"), ("p", "r"), ("s", "s"), ("q", "t"),
        ]

    def test_its_kernel_is_the_partition_as_an_equivalence(self):
        blocks = ((0, 2, 3), (1, 4))
        e = kernel(quotient(B5, blocks))
        assert is_equivalence(e)
        for i, j in itertools.product(range(5), repeat=2):
            assert e.entries[i, j] == any(i in b and j in b for b in blocks)

    @pytest.mark.parametrize(
        "blocks", [[(0, 1)], [(0, 1, 2), ()], [(0, 1), (1, 2)], [(0, 1, 2, 3)]]
    )
    def test_refuses_blocks_that_do_not_partition_the_source(self, blocks):
        with pytest.raises(ValueError, match=r"do not partition range\(3\)"):
            quotient(B3, blocks)


def _partition_rel(blocks):
    m = np.zeros((4, 4), dtype=bool)
    for b in blocks:
        for x in b:
            for y in b:
                m[BB.index(x), BB.index(y)] = True
    return Rel(BB, BB, m)


class TestEnvelope:
    def test_cnot_from_identity(self):
        u = u_construct(identity(BIT), xor_monoid())
        assert u == rel_from_rows(rt.CNOT_4, BB, BB)

    def test_ccnot_from_conjunction(self):
        and_fn = from_function(
            {l: "1" if l == "(1,1)" else "0" for l in BB}, BB, BIT
        )
        u = u_construct(and_fn, xor_monoid())
        b8 = product_basis(BB, BIT)
        assert u == rel_from_rows(rt.CCNOT_8, b8, b8)

    def test_projection_recovers_f(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            table = {x: BIT.labels[rng.integers(2)] for x in B5}
            f = from_function(table, B5, BIT)
            u = u_construct(f, xor_monoid())
            for x in B5:
                out = next(o for o, i in u.pairs() if i == pair_label(x, "0"))
                assert relalg.split_pair(out) == (x, table[x])

    def test_always_self_inverse_bijection(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            table = {x: BIT.labels[rng.integers(2)] for x in B3}
            u = u_construct(from_function(table, B3, BIT), xor_monoid())
            assert is_bijection(u)
            assert compose(u, u) == identity(u.src)

    def test_monoid_laws_checked(self):
        bad = {k: v for k, v in xor_monoid().op.items()}
        bad[("1", "1")] = "1"
        with pytest.raises(ValueError, match=r"^self-annihilation x\.x = unit fails at 1$"):
            relalg.MonoidSpec(BIT, bad, "0")


class TestShunting:
    def test_shunting_law(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            table = {x: B3.labels[rng.integers(3)] for x in BIT}
            g = from_function(table, BIT, B3)
            r = random_rel(rng, B3, BIT)
            s = random_rel(rng, BIT, BIT)
            assert leq_injectivity(compose(r, g), s) == leq_injectivity(
                r, compose(s, converse(g))
            )


class TestTextFormats:
    def test_truth_table_round_trip(self):
        text = relalg.format_truth_table(XOR)
        back = relalg.parse_truth_table(text)
        assert back.src.labels == BB.labels
        assert relalg.format_truth_table(back) == text

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(labels, labels, min_size=1, max_size=8))
    def test_truth_table_text_round_trip(self, table):
        text = "".join(f"{x} -> {y}\n" for x, y in table.items())
        assert relalg.format_truth_table(relalg.parse_truth_table(text)) == text

    @pytest.mark.parametrize("label", ["a,b", "(s1", "s1)", "[a)", "(a]", ")(", "x,(y)"])
    @pytest.mark.parametrize("line", ["{} -> 0", "0 -> {}"])
    def test_truth_table_names_a_malformed_label(self, label, line):
        with pytest.raises(ValueError) as exc:
            relalg.parse_truth_table(line.format(label) + "\n")
        assert str(exc.value) == (
            f"malformed label {label!r}: brackets must balance and commas sit inside them"
        )

    @pytest.mark.parametrize("line", [" -> y", "b -> ", "->", "  ->  ", "-> y"])
    def test_truth_table_names_an_empty_label(self, line):
        with pytest.raises(ValueError) as exc:
            relalg.parse_truth_table(f"a -> x\n{line}\n")
        assert str(exc.value) == f"empty label in truth-table line: {line!r}"

    @settings(max_examples=100, deadline=None)
    @given(labels)
    def test_built_labels_are_accepted(self, label):
        assert relalg.check_label(label) == label

    def test_truth_table_rejects_duplicates(self):
        with pytest.raises(ValueError, match=r"^duplicate source label: 'a'$"):
            relalg.parse_truth_table("a -> 0\na -> 1\n")

    def test_bool_matrix_dump(self):
        assert relalg.format_bool_matrix(FST) == "1 1 0 0\n0 0 1 1\n"
        labeled = relalg.format_bool_matrix(FST, labels=True)
        assert labeled.splitlines()[0] == "0: 1 1 0 0"


# ---------------------------------------------------------------------------
# Every other guard of the module: the call, the error it raises and its
# whole text.

_XOR_OP = xor_monoid().op
# A unital table on three elements where every element annihilates itself,
# but (b.b).c = c and b.(b.c) = b.
_NOT_ASSOCIATIVE = {(x, y): y if x == "a" else x if y == "a" else "a" for x in B3 for y in B3}
GUARDS = {
    "label outside its basis": (lambda: BIT.index("2"), KeyError, "label '2' not in basis"),
    "pair label without parentheses": (lambda: relalg.split_pair("a"), ValueError, "not a pair label: 'a'"),
    "pair label of three": (lambda: relalg.split_pair("(a,b,c)"), ValueError, "not a pair label: '(a,b,c)'"),
    "list label without brackets": (lambda: relalg.split_list("(a)"), ValueError, "not a list label: '(a)'"),
    "tag outside i1 and i2": (lambda: relalg.untag("i3(a)"), ValueError, "not a tagged label: 'i3(a)'"),
    "meet across bases": (lambda: meet(XOR, NOT), BasisMismatchError, "meet: relations must share both bases"),
    "subset across bases": (lambda: subset(XOR, NOT), BasisMismatchError, "subset: relations must share both bases"),
    "unit outside the carrier": (
        lambda: relalg.MonoidSpec(BIT, _XOR_OP, "2"), ValueError, "unit must belong to the carrier"),
    "partial operation table": (
        lambda: relalg.MonoidSpec(BIT, {k: v for k, v in _XOR_OP.items() if k != ("1", "1")}, "0"),
        ValueError, "operation table not total at (1,1)"),
    "unit law": (
        lambda: relalg.MonoidSpec(BIT, {**_XOR_OP, ("0", "1"): "0"}, "0"), ValueError, "unit law fails at 1"),
    "associativity": (
        lambda: relalg.MonoidSpec(B3, _NOT_ASSOCIATIVE, "a"), ValueError, "associativity fails at (b,b,c)"),
    "envelope of a non-function": (
        lambda: u_construct(kernel(XOR), xor_monoid()), ValueError, "u_construct requires a function"),
    "envelope outside the carrier": (
        lambda: u_construct(identity(B3), xor_monoid()), BasisMismatchError,
        "u_construct: f must map into the monoid carrier"),
    "truth-table line without an arrow": (
        lambda: relalg.parse_truth_table("a -> 0\n  b  \n"), ValueError, "malformed truth-table line: '  b  '"),
    "truth table of comments only": (
        lambda: relalg.parse_truth_table("# no lines\n\n"), ValueError, "empty truth table"),
    "truth table of a non-function": (
        lambda: relalg.format_truth_table(kernel(XOR)), ValueError, "only functions have a truth-table form"),
}


@pytest.mark.parametrize("case", GUARDS)
def test_each_guard_names_its_fault(case):
    call, kind, text = GUARDS[case]
    with pytest.raises(kind) as exc:
        call()
    assert type(exc.value) is kind and exc.value.args == (text,)


# ---------------------------------------------------------------------------
# Operator results skip the public constructor's copy and shape check.  Each
# must equal the relation the public ``Rel(...)`` builds from the same
# entries, and hold read-only entries.

def _basis(prefix: str, n: int) -> FinBasis:
    return FinBasis(tuple(f"{prefix}{i}" for i in range(n)))


@st.composite
def rels(draw, src: FinBasis | None = None, tgt: FinBasis | None = None) -> Rel:
    """A relation with random entries between bases of 0 to 4 labels."""
    src = src if src is not None else _basis("s", draw(st.integers(0, 4)))
    tgt = tgt if tgt is not None else _basis("t", draw(st.integers(0, 4)))
    bits = draw(st.lists(st.booleans(), min_size=len(src) * len(tgt), max_size=len(src) * len(tgt)))
    return Rel(src, tgt, np.array(bits, dtype=bool).reshape(len(tgt), len(src)))


def _public(r: Rel) -> Rel:
    """The same relation through the checked constructor."""
    return Rel(r.src, r.tgt, np.array(r.entries))


def _read_only(r: Rel) -> bool:
    return not r.entries.flags.writeable and r.entries.dtype == bool


class TestOperatorsSkipRevalidation:
    """Only this class kills two mutants: ``bang`` building its row as
    uint8, not bool, which every other test compares by value, where 1
    equals True; and ``compose`` counting witnesses in uint8, which wraps
    to none at 256."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), r=rels())
    def test_each_operator_equals_the_public_construction(self, data, r):
        s = data.draw(rels(src=r.src, tgt=r.tgt))
        t = data.draw(rels(tgt=r.src))
        u = data.draw(rels(src=r.src))
        w = data.draw(rels(tgt=r.tgt))
        e, f = r.entries.astype(int), s.entries.astype(int)
        want = {
            "compose": Rel(t.src, r.tgt, e @ t.entries.astype(int) > 0),
            "converse": Rel(r.tgt, r.src, e.T),
            "kernel": Rel(r.src, r.src, e.T @ e > 0),
            "meet": Rel(r.src, r.tgt, e * f > 0),
            "pair": Rel(r.src, product_basis(r.tgt, u.tgt), np.array(
                [[r.entries[i, j] and u.entries[k, j] for j in range(len(r.src))]
                 for i in range(len(r.tgt)) for k in range(len(u.tgt))], dtype=bool
            ).reshape(len(r.tgt) * len(u.tgt), len(r.src))),
            "either": Rel(coproduct_basis(r.src, w.src), r.tgt, np.hstack([e, w.entries.astype(int)]) > 0),
        }
        got = {
            "compose": compose(r, t),
            "converse": converse(r),
            "kernel": kernel(r),
            "meet": meet(r, s),
            "pair": pair(r, u),
            "either": either(r, w),
        }
        for name, rel in got.items():
            assert rel == want[name] == _public(rel), name
            assert _read_only(rel), name
        assert kernel(r) == compose(converse(r), r)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(0, 4), m=st.integers(1, 4))
    def test_each_constructor_equals_the_public_construction(self, data, n, m):
        a, b = _basis("s", n), _basis("t", m)
        outs = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        block_of = data.draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
        blocks = [[j for j in range(n) if block_of[j] == k] for k in range(n + 1)]
        blocks = [blk for blk in blocks if blk]
        least = [min(blk) for j in range(n) for blk in blocks if j in blk]
        want = {
            "identity": Rel(a, a, np.eye(n)),
            "bang": Rel(a, relalg.POINT, np.ones((1, n))),
            "inj1": Rel(a, coproduct_basis(a, b), np.eye(n + m, n)),
            "inj2": Rel(b, coproduct_basis(a, b), np.eye(n + m, m, -n)),
            "gamma": Rel(coproduct_basis(a, a), product_basis(BIT, a), np.eye(2 * n)),
            "from_function": Rel(a, b, np.array([outs], dtype=int) == np.arange(m)[:, None]),
            "quotient": Rel(a, a, np.array([least], dtype=int) == np.arange(n)[:, None]),
        }
        got = {
            "identity": identity(a),
            "bang": bang(a),
            "inj1": relalg.inj1(a, b),
            "inj2": relalg.inj2(a, b),
            "gamma": gamma(a),
            "from_function": from_function({x: b.labels[outs[j]] for j, x in enumerate(a)}, a, b),
            "quotient": quotient(a, blocks),
        }
        for name, rel in got.items():
            assert rel == want[name] == _public(rel), name
            assert _read_only(rel), name

    @settings(max_examples=60, deadline=None)
    @given(r=rels())
    def test_results_are_read_only_and_leave_the_operand_alone(self, r):
        before = r.entries.copy()
        for rel in (converse(r), kernel(r), meet(r, r), pair(r, r), either(r, r), compose(converse(r), r)):
            with pytest.raises(ValueError):
                rel.entries[...] = True
        assert np.array_equal(r.entries, before)

    def test_a_product_counts_no_witnesses(self):
        """256 common witnesses would wrap around to none as a uint8 count."""
        wide = _basis("w", 256)
        r = Rel(BIT, wide, np.ones((256, 2), dtype=bool))
        assert kernel(r) == compose(converse(r), r) == Rel(BIT, BIT, np.ones((2, 2), dtype=bool))
        assert relalg.is_entire(r)
