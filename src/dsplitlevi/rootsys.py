"""The root system of type C_n with exact integer coordinates.

Roots are integer tuples in the orthonormal e-basis: ±e_i ± e_j (i < j)
and ±2e_i, 2n² in all.  Reflections act as signed permutations of the
coordinates: r_{e_i-e_j} acts as (i,j)(-i,-j), r_{e_i+e_j} as
(i,-j)(-i,j), and r_{2e_i} as (i,-i).  This identification of the Weyl
group of type C with the full signed permutation group is used
throughout the package.
"""

from __future__ import annotations

import itertools

from .signedperm import SignedPerm


def apply_to_root(x, root):
    """x·(Σ c_i e_i) = Σ c_i ε(i) e_{bar(i)} for a signed permutation x."""
    if x.n != len(root):
        raise ValueError("rank mismatch between permutation and root")
    out = [0] * len(root)
    for c, v in zip(root, x.img):
        if c:
            out[abs(v) - 1] = c if v > 0 else -c
    return tuple(out)


def reflection_perm(root, n):
    """The signed permutation realising the reflection in ``root``.

    r_{e_i-e_j} -> (i,j)(-i,-j);  r_{e_i+e_j} -> (i,-j)(-i,j);
    r_{2e_i} -> (i,-i).
    """
    nz = [(i, c) for i, c in enumerate(root, start=1) if c]
    img = list(range(1, n + 1))
    if len(nz) == 1 and abs(nz[0][1]) == 2:
        i = nz[0][0]
        img[i - 1] = -i
    elif len(nz) == 2 and abs(nz[0][1]) == 1 and abs(nz[1][1]) == 1:
        (i, ci), (j, cj) = nz
        if ci * cj < 0:
            img[i - 1], img[j - 1] = j, i
        else:
            img[i - 1], img[j - 1] = -j, -i
    else:
        raise ValueError(f"not a root of type C: {root!r}")
    return SignedPerm(img)


def build_root_system(n):
    """The roots of C_n as a sorted tuple."""
    if n < 2:
        raise ValueError("type C needs n >= 2")
    roots = []
    for i, j in itertools.combinations(range(n), 2):
        for si, sj in itertools.product((1, -1), repeat=2):
            v = [0] * n
            v[i], v[j] = si, sj
            roots.append(tuple(v))
    for i in range(n):
        for s in (2, -2):
            v = [0] * n
            v[i] = s
            roots.append(tuple(v))
    return tuple(sorted(roots))


def is_stable_under(roots, x):
    """True iff x maps the given root set into itself."""
    rootset = set(map(tuple, roots))
    return all(apply_to_root(x, r) in rootset for r in rootset)
