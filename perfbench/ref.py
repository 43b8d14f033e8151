"""The reference job: in a fresh interpreter, time the import of a fixed set
of standard-library modules and print ``{"ref_s": seconds}``.

This is the same kind of work as a cold coloredsym call or import (loading
cached bytecode, running module bodies, building classes and functions in a
new process), but it touches no coloredsym code, so no change to the program
can move it.  ``run.py`` scales its times by it.
"""

import json
import time

t0 = time.perf_counter()
import calendar, csv, decimal, difflib, email.message, fractions  # noqa: E401,E402
import http.client, logging, pathlib, pprint, pydoc, statistics  # noqa: E401,E402
import tarfile, unittest, xml.dom.minidom, zipfile  # noqa: E401,E402

print(json.dumps({"ref_s": time.perf_counter() - t0}))
