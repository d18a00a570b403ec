import os
from pathlib import Path

from hypothesis import HealthCheck, settings

import lecam

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# Child processes (the CLI, the scripts) import the same package as the tests,
# also when only pytest's ``pythonpath`` setting put it on the path.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(lecam.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])
)
