"""A minimal JSON-Schema validator for telemetry snapshots.

CI's chaos job validates exported ``--metrics-out`` snapshots
against ``docs/metrics_schema.json``.  The toolchain bakes in no
``jsonschema`` package, so this module implements the small subset of JSON
Schema the checked-in schema actually uses: ``type``, ``const``, ``enum``,
``required``, ``properties``, ``additionalProperties``, ``items``,
``minimum``, and ``$ref`` into ``#/definitions``.

:func:`validate` raises :class:`SchemaError` with a JSON-pointer-style path
on the first violation; :func:`iter_errors` collects every violation.
"""

from __future__ import annotations

from typing import Iterator, Mapping


class SchemaError(ValueError):
    """A document does not conform to its schema."""


_TYPE_CHECKS = {
    "object": lambda value: isinstance(value, Mapping),
    "array": lambda value: isinstance(value, (list, tuple)),
    "string": lambda value: isinstance(value, str),
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
    "number": lambda value: isinstance(value, (int, float)) and not isinstance(value, bool),
    "boolean": lambda value: isinstance(value, bool),
    "null": lambda value: value is None,
}


def _resolve(schema: Mapping, root: Mapping) -> Mapping:
    ref = schema.get("$ref")
    if ref is None:
        return schema
    if not ref.startswith("#/"):
        raise SchemaError(f"unsupported $ref {ref!r} (only #/ fragments)")
    node: object = root
    for part in ref[2:].split("/"):
        if not isinstance(node, Mapping) or part not in node:
            raise SchemaError(f"$ref {ref!r} does not resolve")
        node = node[part]
    if not isinstance(node, Mapping):
        raise SchemaError(f"$ref {ref!r} is not a schema")
    return node


def iter_errors(document: object, schema: Mapping, root: Mapping | None = None, path: str = "$") -> Iterator[str]:
    """Yield a message per violation of ``schema`` by ``document``."""
    if root is None:
        root = schema
    schema = _resolve(schema, root)

    expected = schema.get("type")
    if expected is not None:
        types = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[type_name](document) for type_name in types):
            yield f"{path}: expected type {expected}, got {type(document).__name__}"
            return

    if "const" in schema and document != schema["const"]:
        yield f"{path}: expected const {schema['const']!r}, got {document!r}"
    if "enum" in schema and document not in schema["enum"]:
        yield f"{path}: {document!r} not in enum {schema['enum']!r}"
    if "minimum" in schema and isinstance(document, (int, float)) and not isinstance(document, bool):
        if document < schema["minimum"]:
            yield f"{path}: {document!r} below minimum {schema['minimum']!r}"

    if isinstance(document, Mapping):
        for key in schema.get("required", ()):
            if key not in document:
                yield f"{path}: missing required property {key!r}"
        properties = schema.get("properties", {})
        for key, value in document.items():
            if key in properties:
                yield from iter_errors(value, properties[key], root, f"{path}.{key}")
            else:
                additional = schema.get("additionalProperties", True)
                if additional is False:
                    yield f"{path}: unexpected property {key!r}"
                elif isinstance(additional, Mapping):
                    yield from iter_errors(value, additional, root, f"{path}.{key}")

    if isinstance(document, (list, tuple)):
        items = schema.get("items")
        if isinstance(items, Mapping):
            for index, value in enumerate(document):
                yield from iter_errors(value, items, root, f"{path}[{index}]")


def validate(document: object, schema: Mapping) -> None:
    """Raise :class:`SchemaError` on the first violation (no-op when valid)."""
    for message in iter_errors(document, schema):
        raise SchemaError(message)
