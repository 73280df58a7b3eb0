"""Shared pytest set-up.

Hypothesis keeps drawing fresh examples on every run, so a rare
counterexample may show up once and not again.  This profile prints the
``@reproduce_failure`` line of every failure, so any such run can be
replayed exactly; example counts and deadlines stay at their defaults.
"""

from hypothesis import settings

settings.register_profile("diskpack", print_blob=True)
settings.load_profile("diskpack")
