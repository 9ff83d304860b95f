"""Test-session settings shared by every test directory.

``HYPOTHESIS_PROFILE=ci`` selects the ``ci`` profile, which prints a
``@reproduce_failure`` blob with each falsifying example, so that a failure
whose arguments print only as object reprs (the forest strategies) can be
replayed exactly. Other runs keep Hypothesis's default profile.
"""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
