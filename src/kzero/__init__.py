"""Exact arithmetic toolkit around rank-2 dimension groups and CM curve data.

Subpackages by theme:

- primes: primality and the prime sieve shared by the other modules.
- quadfield: exact elements a + b*sqrt(D) of a quadratic field, fundamental
  units, and the distinguished generator omega of the ring of integers.
- contfrac: periodic continued fractions of quadratic irrationals.
- bratteli: stationary 2x2 diagrams of continued fractions, their dimension
  groups and rank-2 real embeddings, and the UHF p-power chain.
- groupalg: representation-degree profiles, cyclic profinite towers, and the
  restricted-product descriptor.
- elliptic: point counts over F_p and small extensions, Frobenius data, local
  zeta factors, the CM curve table, and norm-form trace computation.
- lfunction: partial Euler products and the motivic/automorphic comparisons.
- coherence: finitely generated subgroups of R and the containment checks.
- cli: command-line surface over all of the above.

Each module above but cli is loaded on first use.  `import kzero` puts all
of them in `sys.modules` and on the package without running them; a
module's code runs when one of its attributes is first read.  So a CLI
process runs only the modules its command uses: `kzero omega` runs
`quadfield` alone.
"""

import importlib.util
import sys


def _register_lazily(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in ("primes", "quadfield", "contfrac", "coherence", "bratteli", "groupalg",
              "elliptic", "lfunction"):
    globals()[_name] = _register_lazily(_name)
