"""Canonical hashing of JSON-able specs.

One recipe names every persisted or compared point: job hashes,
configuration hashes and checkpoint-store keys all come from
:func:`canonical_hash`, so equal specs hash equal however their dict
keys were ordered.
"""

import hashlib
import json


def canonical_hash(value):
    """24-hex sha256 of ``value`` as compact, key-sorted JSON."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]
