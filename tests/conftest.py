"""Test-wide settings.

The hypothesis profile `ci` draws the same examples on every run and prints
the blob that reproduces a failure.  It is loaded when the CI variable is
set, as GitHub Actions sets it, so a fresh random draw cannot fail a change
that did not cause it; a run without CI still draws fresh examples.
"""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
