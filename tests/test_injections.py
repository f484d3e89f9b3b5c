import pytest

from permseq.enumeration import count_table, generate_avoiders, monotonicity_scan
from permseq.injections import (
    basis_extend,
    induced_injection,
    inject_1324_231,
    inject_1324_231_full,
    inject_1324_231_inverse,
    lemma_delete,
    lemma_insert,
    prepend_min_injection,
    verify_injection,
)
from permseq.perms import (
    Perm,
    avoids,
    components,
    delete,
    descending,
    direct_sum,
    insert_value,
    inv_count,
    is_decomposable,
    parse_basis,
    parse_perm,
)

from oracles import all_perms

ARM_BASIS = parse_basis("213,231")
INJ_BASIS = parse_basis("1324,231")


def arm_class(n):
    return [
        p
        for p in generate_avoiders(ARM_BASIS, n, n * (n - 1) // 2)
        if not is_decomposable(p)
    ]


def test_lemma_insert_examples():
    assert lemma_insert(Perm((1,)), 0) == parse_perm("12")
    assert lemma_insert(Perm((1,)), 1) == parse_perm("21")
    # the unique 4-permutation with inv = 2+1 reachable from 312
    got = lemma_insert(parse_perm("312"), 1)
    assert inv_count(got) == 3 and avoids(got, ARM_BASIS)
    assert delete(got, [next(v for v in range(1, 5) if delete(got, [v]) == parse_perm("312"))]) == parse_perm("312")


def test_lemma_delete_examples():
    assert lemma_delete(parse_perm("21"), 1) == Perm((1,))
    # 312 has two inversions: dropping one leaves 21, dropping both leaves 12
    assert lemma_delete(parse_perm("312"), 1) == parse_perm("21")
    assert lemma_delete(parse_perm("312"), 2) == parse_perm("12")
    with pytest.raises(ValueError):
        lemma_delete(parse_perm("312"), 3)


@pytest.mark.parametrize("call, message", [
    (lambda: lemma_insert(Perm(), 0), "permutation must be nonempty"),
    (lambda: lemma_insert(parse_perm("12"), 0), r"Perm\('12'\) is decomposable"),
    # 21 has two entries, so one insertion adds at most 2 inversions
    (lambda: lemma_insert(parse_perm("21"), 3), r"r must be in 0\.\.2"),
])
def test_arm_inputs_are_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("n", range(1, 8))
def test_lemma_insert_unique_and_exhaustive(n):
    for p in arm_class(n):
        k = inv_count(p)
        seen = set()
        for r in range(0, n + 1):
            sigma = lemma_insert(p, r)
            assert inv_count(sigma) == k + r
            assert avoids(sigma, ARM_BASIS)
            assert any(delete(sigma, [v]) == p for v in range(1, n + 2))
            # brute uniqueness: no other extension has the same inversion gain
            cands = {
                insert_value(p, pos, val)
                for pos in range(n + 1)
                for val in range(1, n + 2)
            }
            matching = {
                s for s in cands if inv_count(s) == k + r and avoids(s, ARM_BASIS)
            }
            assert matching == {sigma}, (p, r)
            seen.add(sigma)
        assert len(seen) == n + 1


@pytest.mark.parametrize("n", range(2, 8))
def test_lemma_roundtrip(n):
    for p in arm_class(n):
        for r in range(0, n + 1):
            sigma = lemma_insert(p, r)
            if 1 <= r <= n and not is_decomposable(sigma):
                assert lemma_delete(sigma, r) == p


def test_injection_branches():
    res = inject_1324_231_full(descending(4))
    assert res.branch == 1
    assert res.image == direct_sum(descending(4), Perm((1,)))
    assert inject_1324_231(Perm(())) == Perm((1,))

    p = direct_sum(parse_perm("1"), parse_perm("21"))  # decomposable
    res = inject_1324_231_full(p)
    assert res.branch == 2
    assert len(components(res.image)) >= 3

    pi = Perm((12, 11, 10, 9, 8, 5, 3, 1, 2, 4, 7, 6))
    res = inject_1324_231_full(pi)
    assert res.branch == 3
    assert (res.data.ell, res.data.m, res.data.q, res.data.r) == (5, 2, 2, 1)
    assert res.image == Perm((13, 12, 11, 7, 6, 5, 3, 1, 2, 4, 10, 8, 9))
    assert inv_count(res.image) == inv_count(pi) == 52


@pytest.mark.parametrize("p, image, data", [
    ("4312", "52134", (2, 1, 1, 0)),  # r = 0: the image admits two q
    ("54312", "632154", (3, 1, 2, 1)),
    ("7654312", "87432165", (5, 1, 3, 1)),
    ("312", "2143", (1, 1, 1, 1)),  # a decomposable branch-3 image
])
def test_branch3_images_pinned(p, image, data):
    res = inject_1324_231_full(parse_perm(p))
    assert res.branch == 3
    assert res.image == parse_perm(image)
    assert (res.data.ell, res.data.m, res.data.q, res.data.r) == data
    assert inject_1324_231_inverse(res.image) == parse_perm(p)


@pytest.mark.parametrize("sigma", ["23145", "21", "1324", ""])
def test_inverse_rejects_named_non_images(sigma):
    with pytest.raises(ValueError):
        inject_1324_231_inverse(parse_perm(sigma) if sigma else Perm(()))


@pytest.mark.parametrize("n", range(1, 8))
def test_inverse_is_exact_on_all_perms(n):
    # every permutation is either an image that round-trips or a ValueError
    images = 0
    for sigma in all_perms(n):
        try:
            p = inject_1324_231_inverse(sigma)
        except ValueError:
            continue
        assert inject_1324_231(p) == sigma
        images += 1
    dom = generate_avoiders(INJ_BASIS, n - 1, max(0, (n - 1) * (n - 2) // 2))
    assert images == len(dom)


def test_injection_rejects_non_members():
    with pytest.raises(ValueError):
        inject_1324_231(parse_perm("231"))


@pytest.mark.parametrize("n", [
    *range(0, 9), *(pytest.param(n, marks=pytest.mark.slow) for n in range(9, 13))])
def test_injection_verified_small(n):
    dom = generate_avoiders(INJ_BASIS, n, max(0, n * (n - 1) // 2))
    check = verify_injection(dom, inject_1324_231, INJ_BASIS)
    assert check.ok and check.total == len(dom)
    for p in dom:
        assert inject_1324_231_inverse(inject_1324_231(p)) == p


@pytest.mark.parametrize("n", range(1, 9))
def test_branch_images_disjoint(n):
    br3, br12 = set(), set()
    cap = direct_sum(descending(n), Perm((1,)))
    for p in generate_avoiders(INJ_BASIS, n, n * (n - 1) // 2):
        res = inject_1324_231_full(p)
        c = len(components(res.image))
        if res.branch == 3:
            assert c <= 2
            br3.add(res.image)
        else:
            assert c >= 3 or res.image == cap
            br12.add(res.image)
    assert not (br3 & br12)


def test_basis_extend_examples():
    assert basis_extend(parse_basis("213"), "left") == parse_basis("1324,2314,3214,4213")
    assert basis_extend(parse_basis("213"), "right") == parse_basis("3241,3142,2143,2134")
    assert basis_extend(parse_basis("213"), "up") == parse_basis("4213,2413,2143,2134")
    assert basis_extend(parse_basis("213"), "down") == parse_basis("1324,3124,3214,3241")
    assert basis_extend(parse_basis("1"), "up") == parse_basis("12,21")
    with pytest.raises(ValueError):
        basis_extend(parse_basis("213"), "side")


def test_iterated_extension_sizes():
    b = parse_basis("213")
    sizes = []
    for _ in range(3):
        b = basis_extend(b, "left")
        sizes.append(len(b))
    assert sizes == [4, 20, 120]  # (3+i)!/3!


def test_extension_members_shed_first_entry():
    bl = basis_extend(parse_basis("213"), "left")
    for n in range(1, 8):
        for p in generate_avoiders(bl, n, n * (n - 1) // 2):
            assert avoids(delete(p, [p[0]]), parse_basis("213"))


def test_induced_injection_properties():
    base = parse_basis("213")
    bl = basis_extend(base, "left")
    g = induced_injection(prepend_min_injection)
    for n in range(0, 8):
        dom = generate_avoiders(bl, n, max(0, n * (n - 1) // 2))
        check = verify_injection(dom, g, bl)
        assert check.ok
        for p in dom:
            if p:
                assert g(p)[0] == p[0]


# Maps on Av_{<=3}(213) that each break exactly one property verify_injection checks.
BROKEN_MAPS = {
    # no new entry
    "length_ok": Perm,
    # a new maximum in front adds len(p) inversions
    "inv_ok": lambda p: insert_value(p, 0, len(p) + 1),
    # a new maximum at the end completes 213 after any descent
    "avoid_ok": lambda p: insert_value(p, len(p), len(p) + 1),
    # 231 and 312 both have 2 inversions, and both go to 1423
    "injective": lambda p: prepend_min_injection(
        parse_perm("312") if p == parse_perm("231") else p),
}


@pytest.mark.parametrize("flag", BROKEN_MAPS)
def test_verify_injection_flags_the_broken_property(flag):
    basis = parse_basis("213")
    domain = [p for n in range(4) for p in generate_avoiders(basis, n, 3)]
    check = verify_injection(domain, BROKEN_MAPS[flag], basis)
    assert {name: getattr(check, name) for name in BROKEN_MAPS} == {
        name: name != flag for name in BROKEN_MAPS}
    assert not check.ok and check.total == len(domain) == 1 + 1 + 2 + 5


def test_prepend_min_is_injection_for_213():
    base = parse_basis("213")
    for n in range(0, 8):
        dom = generate_avoiders(base, n, max(0, n * (n - 1) // 2))
        assert verify_injection(dom, prepend_min_injection, base).ok


@pytest.mark.parametrize("i", (1, 2))
def test_conjecture_support_iterated_bases(i):
    b = parse_basis("213")
    for _ in range(i):
        b = basis_extend(b, "left")
    basis = frozenset(b | parse_basis("1324"))
    t = count_table(basis, 10, 15)
    assert monotonicity_scan(t) == []
