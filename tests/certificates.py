"""Exhaustive certificates for the rank-2 classification.

Every positive definite binary form is equivalent to exactly one
Gauss-reduced form [[a, b], [b, c]] with 0 <= 2b <= a <= c, so checking all
of them up to a determinant bound checks the normal-form theorem on every
rank-2 lattice of that determinant.  From the repository root:

    PYTHONPATH=src:tests python -c "import certificates; print(certificates.rank2_certificate(1000))"

prints the counts, or raises CertificateFailure with the first mismatches.
"""

from __future__ import annotations

from latscreen import (
    WARN_2B_ODD,
    Lattice,
    NoScreener,
    all_screeners,
    rank2_normal_form,
    rank2_predicted_in_lattice,
)


class CertificateFailure(Exception):
    pass


def reduced_binary_forms(max_det: int):
    """Every (a, b, c) with 0 <= 2b <= a <= c and 0 < ac - b^2 <= max_det.

    Reduction gives det >= a*a - (a/2)^2 = 3a^2/4, which bounds a.
    """
    a = 1
    while 3 * a * a <= 4 * max_det:
        for b in range(a // 2 + 1):
            c = a
            while a * c - b * b <= max_det:
                yield a, b, c
                c += 1
        a += 1


def rank2_certificate(max_det: int) -> dict:
    """Check the rank-2 normal form on every reduced form with det <= max_det.

    For each form L: with no screener the normal form is NoScreener; else the
    normal form's predicted screeners, mapped back to L, equal the screener
    set of L exactly when the form carries no WARN_2B_ODD warning (the odd
    scale type 2b prediction overcounts, as documented).  The screener set is
    walked once and handed to `rank2_normal_form`.
    """
    counts = {"max_det": max_det, "forms": 0, "no_screener": 0, "warned": 0}
    bad = []
    for a, b, c in reduced_binary_forms(max_det):
        counts["forms"] += 1
        lat = Lattice([[a, b], [b, c]])
        sset = all_screeners(lat)
        form = rank2_normal_form(lat, sset)
        if isinstance(form, NoScreener):
            counts["no_screener"] += 1
            if sset.vectors:
                bad.append(((a, b, c), "NoScreener but screeners exist", sset.vectors))
            continue
        predicted = rank2_predicted_in_lattice(form)
        agrees = predicted == tuple(sorted(sset.vectors))
        if form.warnings:
            counts["warned"] += 1
            if form.warnings != (WARN_2B_ODD,) or agrees:
                bad.append(((a, b, c), f"warned {form.warnings} but agrees={agrees}", predicted))
        elif not agrees:
            bad.append(((a, b, c), f"predicted {predicted}", sset.vectors))
    if bad:
        raise CertificateFailure(f"{len(bad)} of {counts['forms']} forms disagree: {bad[:5]}")
    return counts
