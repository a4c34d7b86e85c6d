import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests run the same examples on every run and keep no example
# database.  Hypothesis still caches the numeric constants it reads from the
# source files; that cache goes to the temporary directory, so a test run
# writes no .hypothesis/ directory into the checkout.  No per-example
# deadline: a stalled flow legitimately spends its whole step budget.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "newtonflow-hypothesis")
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None, max_examples=100)
settings.load_profile("deterministic")
