"""Acceptance suite: one test per criterion, each at its stated tolerance
(exact integer equality throughout). Run with -v for per-criterion lines;
each test also prints its own PASS line."""

import pytest

from permseq.almost_decomp import compat_table_row, f_domain, f_map
from permseq.enumeration import (
    count_table,
    diagonal_limit,
    generate_avoiders,
    iter_avoiders_upto,
    limit_report,
    row_differences,
)
from permseq.golden import GOLDEN_PARTNERS, check_all
from permseq.injections import (
    inject_1324_231,
    inject_1324_231_inverse,
    verify_injection,
)
from permseq.partitions import (
    FAMILY_TESTS,
    indecomposable_avoiders,
    lambda_map,
    partitions_of,
    is_spm,
)
from permseq.perms import (
    Perm,
    avoids,
    contains,
    direct_sum,
    identity,
    inv_count,
    parse_basis,
    parse_perm,
)
from permseq.series import av_1324_1342, named_gf

from oracles import all_perms, lambda_inverse, spm_generate

P1324 = parse_perm("1324")
P1342 = parse_perm("1342")


def _announce(num, text):
    print(f"ACCEPTANCE {num}: {text}: PASS")


def test_criterion_1_golden_tables():
    failures = [r for r in check_all() if not r.ok]
    assert failures == [], [
        (r.partner, r.kind, r.mismatches[:3]) for r in failures
    ]
    _announce(1, "all 22 reference tables reproduced cell-by-cell")


def test_criterion_2_counterexample():
    t = count_table(parse_basis("1324,321"), 11, 15)
    assert t.value(10, 15) == 60
    assert t.value(11, 15) == 52
    _announce(2, "av_10^15(1324,321)=60 and av_11^15(1324,321)=52")


def test_criterion_3_injection_suite():
    basis = parse_basis("1324,231")
    total = 0
    for n in range(0, 11):
        domain = generate_avoiders(basis, n, max(0, n * (n - 1) // 2))
        check = verify_injection(domain, inject_1324_231, basis)
        assert check.ok, (n, check)
        for p in domain:
            assert inject_1324_231_inverse(inject_1324_231(p)) == p, p
        total += len(domain)
    _announce(3, f"injection verified with round trips on {total} permutations, n <= 10")


def test_criterion_4_f_map_suite():
    n_max = 9
    images = {}
    domain_sizes = {}
    min_cex = {}
    preserved = True
    for pi, k in iter_avoiders_upto([P1324], n_max, n_max * (n_max - 1) // 2):
        n = len(pi)
        if not f_domain(pi):
            # theorem: low-inversion avoiders are decomposable or almost so
            assert k > 2 * n - 7, (pi, k)
            continue
        img = f_map(pi)
        assert len(img) == n + 1
        assert inv_count(img) == k
        assert avoids(img, [P1324])
        images.setdefault((n, k), set()).add(img)
        domain_sizes[(n, k)] = domain_sizes.get((n, k), 0) + 1
        before = contains(pi, P1342)
        after = contains(img, P1342)
        if before and not after:
            preserved = False
        if not before and after:
            min_cex[n] = min(min_cex.get(n, 10**9), k)
    for key, size in domain_sizes.items():
        assert len(images[key]) == size, key
    assert preserved
    for n, k in min_cex.items():
        assert k >= 2 * n - 5, (n, k)
    _announce(4, f"f-map verified on Av_n(1324) for n <= {n_max}; "
                 f"1342 counterexample minima {min_cex}")


TABLE4 = {
    3: (4, 4, 4, 2, 2, 2),
    4: (18, 20, 20, 3, 3, 5),
    5: (87, 91, 91, 12, 12, 16),
    6: (425, 447, 451, 62, 66, 88),
    7: (1973, 2087, 2122, 640, 675, 789),
    # beyond the paper, which stops at n = 6; computed by this package
    8: (8680, 9194, 9384, 6409, 6599, 7113),
}


def _table4_check(n):
    row = compat_table_row(n)
    assert row.columns == TABLE4[n], (n, row.columns)
    return row


def test_criterion_5_classification_counts():
    for n in (3, 4, 5, 6):
        _table4_check(n)
    _announce(5, "all six classification columns match for n = 3..6")


@pytest.mark.slow
def test_criterion_5_classification_counts_n7():
    _table4_check(7)
    _announce(5, "classification columns match for n = 7")


@pytest.mark.slow
def test_criterion_5_classification_counts_n8():
    assert _table4_check(8).total == 15793
    _announce(5, "classification columns match for n = 8")


def test_criterion_6_enumeration_theorem():
    t = count_table(parse_basis("1324,1342"), 12, 17)
    checked = 0
    for n in range(1, 13):
        for k in range(0, 18):
            if n >= (k + 7) / 2:
                assert t.value(n, k) == av_1324_1342(n, k), (n, k)
                checked += 1
    wide = count_table(parse_basis("1324,1342"), 15, 20)
    assert diagonal_limit(row_differences(wide))[:7] == [2, 6, 12, 24, 44, 76, 128]
    _announce(6, f"closed form matches brute force on {checked} cells; "
                 "secondary diagonal 2,6,12,24,44,76,128")


def test_criterion_7_gf_catalogue():
    k_max = 12
    for partner in GOLDEN_PARTNERS:
        series = named_gf(f"1324,{partner}", k_max)
        table = count_table(parse_basis(f"1324,{partner}"), k_max + 2 + 4, k_max)
        rep = limit_report(table)
        assert None not in rep.m, partner
        assert list(rep.c) == list(series.coeffs), partner
    _announce(7, "all eleven limit generating functions match stabilized tables, k <= 12")


def test_criterion_8_bijection_suite():
    # the six partition families against the enumerated permutation side
    transfers = {
        "2341": FAMILY_TESTS["2341"],
        "3241": FAMILY_TESTS["3241"],
        "3412": FAMILY_TESTS["3412"],
        "3421": FAMILY_TESTS["3421"],
        "4231": FAMILY_TESTS["4231"],
        "4321": FAMILY_TESTS["4321"],
    }
    for partner, test in transfers.items():
        basis = parse_basis(f"132,{partner}")
        for k in range(0, 13):
            left = {lambda_map(p) for p in indecomposable_avoiders(basis, k)}
            right = {lam for lam in partitions_of(k) if test(lam)}
            assert left == right, (partner, k)
    # Lambda round trip, exhaustive through inv = 10
    for k in range(0, 11):
        for lam in partitions_of(k):
            assert lambda_map(lambda_inverse(lam)) == lam
        for p in indecomposable_avoiders(parse_basis("132"), k):
            assert lambda_inverse(lambda_map(p)) == p
    # recursive sand pile closure equals the characterization
    for k in range(0, 13):
        assert spm_generate(k) == {lam for lam in partitions_of(k) if is_spm(lam)}
    assert spm_generate(5) == {(5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1)}
    _announce(8, "six partition families, Lambda round trip, sand pile closure")


def _bases_used_in_suite():
    bases = [
        "21", "132", "213", "321", "1234", "1324",
        "213,231", "1324,231", "1324,321", "1243,2134",
        "213,2431", "132,3241", "1324,2314,3214,4213",
    ]
    bases += [f"1324,{p}" for p in GOLDEN_PARTNERS]
    bases += [f"132,{p}" for p in ("2341", "3412", "3421", "4231", "4321")]
    flank = []
    for a in range(0, 3):
        for b in range(0, 3):
            left = direct_sum(identity(a), parse_perm("21"))
            right = direct_sum(parse_perm("21"), identity(b))
            flank.append(frozenset({left, right}))
    return [parse_basis(b) for b in bases] + flank


def test_criterion_9_oracle_equivalence():
    bases = _bases_used_in_suite()
    for basis in bases:
        for n in range(0, 8):
            got = generate_avoiders(basis, n, max(0, n * (n - 1) // 2))
            want = sorted(p for p in all_perms(n) if avoids(p, basis)) if n else [Perm(())]
            assert got == want, (basis, n)
    _announce(9, f"pruned generator equals brute-force filtering for {len(bases)} bases, n <= 7")
