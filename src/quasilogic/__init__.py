"""quasilogic: the logic of sequential yes-no questions.

Four layers, usable independently:

* :mod:`quasilogic.logic`: exact four-valued connectives of ordered question
  pairs, their truth tables, and the identity suite.
* :mod:`quasilogic.hilbert`: projector questions and density states with the
  Lüders update rule: sequential and logical joint probabilities,
  Kirkwood-Dirac distributions, weak values, negativity witnesses.
* :mod:`quasilogic.jordan`: numerical verification of the symmetrised-product
  algebra the commutative connectives land in.
* :mod:`quasilogic.survey`: reconstruction of order-invariant logical joint
  probabilities from two-order yes/no survey counts, with significance tests
  and bootstrap intervals.

Import each layer, ``from quasilogic import hilbert``; the package imports
none, so :mod:`quasilogic.logic` loads without numpy.  Nor does
:mod:`quasilogic.cli` until a subcommand computes.
"""

__version__ = "0.31.0"

__all__ = ["__version__"]
