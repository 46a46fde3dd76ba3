"""The one reader of the package's JSON documents: zone, scenario, MUD allowlist and region groups.

A loader hands `parse` the bytes it was given and its own error class,
then checks each field it reads with the typed getters.  Every getter,
and a block of `at` round a check made elsewhere, raises the loader's
error class with the field's path, in one wording:

    records['a.t'].answers[0].region: must be text, got 12
    device: missing field 'device_id'

JSON keeps the last of two equal keys in one object without a word, which
would hide a repeated qname, region or device id, so `parse` rejects any
repeat.
"""

from __future__ import annotations

import functools
import gc
import json


def bulk(function):
    """*function*, run with the cyclic garbage collector paused, if it was running, until it returns or raises.

    A loaded value has no reference cycles (the tests check it), so the
    collector's passes over its many new objects would find nothing.  An
    error path may leave traceback cycles, which the collector reclaims
    once the pause ends.  The pause is process-wide: a thread that loads
    pauses collection for all threads until it returns.
    """

    @functools.wraps(function)
    def paused(*args, **kwargs):
        if not gc.isenabled():  # paused by the caller or an outer loader, which resumes it
            return function(*args, **kwargs)
        gc.disable()
        try:
            return function(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def decode(data: bytes | str, document, error: type[Exception]) -> str:
    """*data* as text; bytes are decoded as a file read in text mode is: UTF-8, universal newlines.

    Bytes that are not UTF-8 raise *error* naming *document*.
    """
    if isinstance(data, bytes):
        with at(document, error, UnicodeDecodeError):
            data = data.decode()
        if "\r" in data:
            data = data.replace("\r\n", "\n").replace("\r", "\n")
    return data


def parse(data: bytes | str, document, error: type[Exception]):
    """The JSON value in *data*; bad JSON or a key repeated in one object raises *error* naming *document*."""

    def unique(pairs):
        obj = dict(pairs)
        if len(obj) != len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise error(f"{document}: duplicate key {key!r}")
                seen.add(key)
        return obj

    with at(document, error, json.JSONDecodeError):
        return json.loads(decode(data, document, error), object_pairs_hook=unique)


class at:
    """A block in which an exception of a *catch* class is raised again as ``error(f"{path}: {exc}")``.

    With *error* None the new exception has the caught one's class.  An
    exception of any other class leaves the block unchanged, so a block
    nested in another must not raise a class the outer one catches: the
    outer would put its path in front again.
    """

    def __init__(self, path, error: type[Exception] | None, catch):
        self.path, self.error, self.catch = path, error, catch

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, self.catch):
            raise (self.error or kind)(f"{self.path}: {exc}") from None
        return False


def _typed(value, path, error: type[Exception], kind: type, name: str):
    if type(value) is not kind:  # exact, so a JSON true or false is no integer
        raise error(f"{path}: must be {name}, got {value!r}")
    return value


# The typed getters, called as getter(value, path, error): *value*, the field at *path*, if it has
# the getter's JSON type; otherwise *error* is raised.
obj = functools.partial(_typed, kind=dict, name="an object")
array = functools.partial(_typed, kind=list, name="an array")
text = functools.partial(_typed, kind=str, name="text")
integer = functools.partial(_typed, kind=int, name="an integer")


def field(container: dict, key: str, path, error: type[Exception], check=None):
    """*container*[*key*], *container* being the object at *path*.

    With *check*, one of the typed getters, the value is also checked by
    it as the field at ``{path}.{key}``.
    """
    try:
        value = container[key]
    except KeyError:
        raise error(f"{path}: missing field {key!r}") from None
    return value if check is None else check(value, f"{path}.{key}", error)
