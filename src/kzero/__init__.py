"""Exact arithmetic toolkit around rank-2 dimension groups and CM curve data.

Subpackages by theme:

- primes: primality and the prime sieve shared by the other modules.
- quadfield: exact elements (x + y*sqrt(D))/den of a quadratic field, fundamental
  units, and the distinguished generator omega of the ring of integers.
- contfrac: periodic continued fractions of quadratic irrationals, and the one
  convergent recurrence behind the unit, the seed, the trace pair and B.
- bratteli: stationary 2x2 diagrams of continued fractions, their dimension
  groups and unital trace pairs, and the UHF p-power chain.
- groupalg: representation-degree profiles and cyclic profinite towers.
- elliptic: point counts over F_p and small extensions, Frobenius data, local
  zeta factors, the CM curve table, and norm-form trace computation.
- lfunction: partial Euler products and the motivic/automorphic comparisons.
- coherence: the integer check that the Effros-Shen dimension group of omega
  is Z + Z*omega as an ordered group.
- cli: command-line surface over all of the above; its `adelic` command
  assembles the restricted-product descriptor from towers and a diagram.

Each module above but cli is loaded on first use.  `import kzero` puts all
of them in `sys.modules` and on the package without running them; a
module's code runs when one of its attributes is first read.  So a CLI
process runs only the modules its command uses: `kzero omega` runs
`quadfield` alone.

`Frozen` is the base of the library's validated records.  It gives them the
immutability, equality and hashing of a frozen dataclass without importing
`dataclasses`, which loads `inspect`: about 12 ms of a CLI run on 2 vCPUs.
"""

import importlib.util
import sys


class Frozen:
    """An immutable record whose fields are the subclass's `__slots__`.

    The subclass's `__init__` (`__new__` for `QuadElement`) checks its
    arguments and stores each field with `object.__setattr__`.  Two records
    are equal when they are of the same class and their fields are equal in
    slot order, and the hash follows the same fields.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


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
