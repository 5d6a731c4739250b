import re
from pathlib import Path

import floodcal
from floodcal import errors


def test_every_error_type_is_raised():
    # an error type nothing raises is dead code that still reads as a contract
    sources = [path.read_text() for path in Path(floodcal.__file__).parent.glob("*.py")
               if path.name != "errors.py"]
    types = [name for name, value in vars(errors).items()
             if isinstance(value, type) and issubclass(value, errors.FloodcalError)
             and value is not errors.FloodcalError]
    assert "ConfigError" in types
    unraised = [name for name in types
                if not any(re.search(rf"raise\s+{name}\(", text) for text in sources)]
    assert unraised == []
