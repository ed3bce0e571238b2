"""Exact computations around d-split Levi subgroups of Sp(2n, q).

The package is organised bottom-up:

- ``arith``: small exact integer routines (primality, factorisation,
  prime powers) and the exception for inputs past a desk bound.
- ``signedperm``: the group of signed permutations of {±1, ..., ±n},
  centralizer shapes, canonical cycle generators, brute-force closures
  and normalizers.
- ``rootsys``: the root system of type C_n as explicit integer
  vectors, reflections as signed permutations and their action on
  roots.
- ``cyclo``: exact cyclotomic arithmetic (Q adjoined a root of unity)
  and eigenspace computations for integer matrices.
- ``levi``: d-split Levi labels in type C, Sylow twists, relative Weyl
  groups and their brute verification.
- ``extweyl``: Chevalley generators of Sp(2n) as exact matrices, the
  extended Weyl group, and the matrix lifts of the relative Weyl group.
- ``torus``: the twisted maximal torus as coordinate tuples of
  discrete logs in the cyclic unit group of a finite field, Lang maps,
  fixed points, central actions.
- ``chartab``: exact character tables (Dixon's method), restriction,
  inner products, inertia groups, and extendibility of linear
  characters of abelian normal subgroups from derived subgroups.
- ``cliff``: stabilizers of Levi-side characters in the relative Weyl
  group, the sign character of the index-2 covering, the K(lambda)
  subgroup and the invariance criterion.
- ``cli``: command-line entry points emitting deterministic JSON.
"""

__version__ = "0.1.0"

__all__ = [
    "arith",
    "signedperm",
    "rootsys",
    "cyclo",
    "levi",
    "extweyl",
    "torus",
    "chartab",
    "cliff",
    "cli",
]
