"""Test-suite settings: every hypothesis property test runs deterministically.

The same examples are drawn on every run (derandomize), nothing is read from
or written to an example database, and no per-example deadline applies, so a
slow machine cannot turn a passing property into a flaky one.
"""

from hypothesis import settings

settings.register_profile("sepkit", derandomize=True, database=None, deadline=None)
settings.load_profile("sepkit")
