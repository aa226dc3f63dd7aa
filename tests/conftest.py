"""Test-wide settings.

Both hypothesis profiles leave out the explain phase, which reruns a failing
example many times to annotate it and can stretch a report from seconds to
minutes; the examples drawn and the verdicts are the same without it.

The hypothesis profile `ci` draws the same examples on every run and prints
the blob that reproduces a failure.  It is loaded when the CI variable is
set, as GitHub Actions sets it, so a fresh random draw cannot fail a change
that did not cause it; a run without CI loads `local`, which still draws
fresh examples.
"""
import os

from hypothesis import Phase, settings

_PHASES = tuple(p for p in Phase if p is not Phase.explain)

settings.register_profile("local", phases=_PHASES)
settings.register_profile("ci", derandomize=True, print_blob=True, phases=_PHASES)
settings.load_profile("ci" if os.environ.get("CI") else "local")
