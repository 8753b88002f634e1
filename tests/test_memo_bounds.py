"""Every memo in bandforge is bounded.

A long-lived process must not grow without bound, so every function that
keeps an lru_cache either has a maxsize or is listed here with the bounded
domain of its keys.  Factors keep their own complements, and complement and
tau keep no memo.  The listed memos do keep the factors they hold alive, so
the intern table's sweep never drops those; their key domains bound them.
"""

import importlib
import pkgutil

import bandforge
from bandforge import factors

#: The memos without a maxsize, each with the bounded domain of its keys.
UNBOUNDED = {
    "bandforge.factors._tables": "n <= MAX_STRANDS = 255",
    "bandforge.factors._rotation": "n - 1 shifts per n",
    "bandforge.factors.gen_factor": "n(n-1)/2 generators per n",
    "bandforge.factors.enumerate_factors": "n <= ENUMERATION_BOUND = 8",
    # Its tuples hold one factor per interval of NC(n): 43,263 at n = 8.
    "bandforge.conjugacy._conjugators_above": "Catalan(n) factors per n <= ENUMERATION_BOUND",
    # Catalan(n) - 2 conjugators, each with three rotations: 1,428 rows per key at n = 8.
    "bandforge.conjugacy._conjugators": "(n, p mod n) for n <= ENUMERATION_BOUND: 36 keys",
    "bandforge.cli._parser": "no arguments: one parser",
}


def _memos():
    """Every bandforge function that keeps a cache, by qualified name."""
    for info in pkgutil.iter_modules(bandforge.__path__, "bandforge."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module.__name__:
                yield f"{module.__name__}.{name}", obj


def test_memos_are_bounded():
    memos = dict(_memos())
    assert "bandforge.normal_form.left_weight_pair" in memos
    unbounded = {name for name, f in memos.items() if f.cache_info().maxsize is None}
    assert unbounded <= set(UNBOUNDED), sorted(unbounded - set(UNBOUNDED))
    # The list names no memo that is gone or has since been bounded.
    assert set(UNBOUNDED) <= unbounded, sorted(set(UNBOUNDED) - unbounded)


def test_factor_results_are_not_memoized():
    assert not hasattr(factors.complement, "cache_info")
    assert not hasattr(factors.tau, "cache_info")
