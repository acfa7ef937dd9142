"""Hypothesis profiles.

``tier1``, loaded by default, draws the same examples on every run
(``derandomize``), so a test run is a function of the commit.  ``fuzz``
draws new examples from the seed given by ``--hypothesis-seed``; select it
with ``--hypothesis-profile=fuzz``.  Neither changes an example count.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.register_profile("fuzz", derandomize=False)
settings.load_profile("tier1")
