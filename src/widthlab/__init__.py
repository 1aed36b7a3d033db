"""widthlab: exact width parameters and certificates for structured graph families.

Subpackages by concern:

* :mod:`widthlab.graphs` - graph container and family generators
* :mod:`widthlab.hales` - slice orders and the boundary-greedy global order
* :mod:`widthlab.widthcalc` - block matrices, radii, bandwidth formulas
* :mod:`widthlab.decomp` - decomposition certificates and validators
* :mod:`widthlab.oracles` - exhaustive exact baselines
* :mod:`widthlab.bounds` - lower-bound engines (brambles, spectra, degrees)
* :mod:`widthlab.suites` - named verification suites and formula tables
* :mod:`widthlab.cli` - command line front end
"""

from . import bounds, decomp, graphs, hales, oracles, widthcalc  # noqa: F401

__version__ = "0.1.0"
