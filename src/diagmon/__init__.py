"""Diagram monoids, Ehresmann structure, and their exact-rational algebras.

Subpackages:

- ``diagrams``: partition diagrams and their stacking product
- ``relations``: binary relations under composition
- ``monoid``: generic finite-monoid engine (Froidure-Pin enumeration,
  Cayley graphs and tables, Green's relations)
- ``ehresmann``: axiom checks, tilde classes, natural orders, substructures
- ``zoo``: named families (partition, Brauer, rook, relation monoids)
- ``algebra``: categories, basis transform, Mobius inversion, radicals
- ``dotout``: egg-box diagrams as Graphviz DOT
- ``verify``: named verification suites
- ``cli``: the ``diagmon`` command
"""

__version__ = "0.1.0"

__all__ = [
    "algebra",
    "cli",
    "diagrams",
    "dotout",
    "ehresmann",
    "errors",
    "monoid",
    "relations",
    "verify",
    "zoo",
]
