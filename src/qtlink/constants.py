"""Physical constants, normalization choices and the input-field checks.

HBAR = 2 fixes the vacuum quadrature variance to 1.  FIELD_SCALE is the
squared single-photon field amplitude |E|^2 appearing in raw photocurrent
expressions; the minimum-offset results are independent of it (and of the
local-oscillator photon number), so it is normalized to 1 and photocurrents
are reported in these normalized units.  Recovering physical current units
would additionally need the detector's electrical gain, which is outside
this model.

SWEEP_VARIABLES names the variables a sweep may run over, and POLICIES the
vacuum-port policies of a channel pair; they live here so the CLI can offer
them as choices without loading the sweep or sensing layer.

Every value type and kernel checks its inputs where they are built with
:func:`require_real`, :func:`require_finite` and :func:`require`, so each
bad field is rejected with one message shape, ``<field> must be
<requirement>, got <value>``.  :func:`real_array` applies the same type rule
to each element of an array argument before converting it to floats.
FLOAT_MAX bounds a finite field: ``abs(value) <= FLOAT_MAX`` fails for NaN,
for an infinity and for an int too large for a double, where
``math.isfinite`` would raise OverflowError on that int.

:func:`format_rows` fills a line template once per row of a table's
columns, formatting each distinct value of a column once; it is the one
formatter of CSV rows, JSON rows and verify report lines.
Nothing here imports numpy until an array reaches it, so a command that
computes only Python reals never loads numpy.

:class:`Record` is the base of every value type: ``FIELDS`` maps its
annotated class attributes to their defaults (:data:`REQUIRED` if none).  It
binds arguments as a function would, checks each ``float`` and ``int``
field by one type rule, is frozen, compares field by field (an array
whole, also inside a dict) and generates no code; :func:`asdict`
gives its field values and :func:`replace` a changed copy, checked again.
"""

import numbers
import sys

SPEED_OF_LIGHT = 299792458.0  # m/s
HBAR = 2.0
FIELD_SCALE = 1.0
FLOAT_MAX = sys.float_info.max

SWEEP_VARIABLES = ("eta_symmetric", "eta1", "eta2", "r_db", "n_in")
POLICIES = ("shared", "independent")

REQUIRED = object()  # the default of a Record field that has none
_TYPED = {"float": (float, False), "float | None": (float, True),
          "int": (int, False), "int | None": (int, True)}


class Record:
    """A frozen value type; ``FIELDS`` maps its annotated class attributes to their defaults.

    ``TYPED`` maps each field annotated ``float`` or ``int`` to (that type, None admitted by
    ``| None``).  As it binds, a float must be finite and an int an integer, a bool neither,
    and each is stored as the Python number it equals, as a numpy scalar is no JSON number.
    """

    def __init_subclass__(cls):
        names = cls.__dict__.get("__annotations__", {})
        cls.FIELDS = {name: cls.__dict__.get(name, REQUIRED) for name in names}
        cls.TYPED = {name: _TYPED[kind] for name, kind in names.items() if kind in _TYPED}

    def __init__(self, *args, **kwargs):
        given = dict(zip(self.FIELDS, args))
        extra = [key for key in kwargs if key not in self.FIELDS or key in given]
        values = {**self.FIELDS, **given, **kwargs}
        missing = [key for key, value in values.items() if value is REQUIRED]
        if len(args) > len(self.FIELDS) or extra or missing:
            raise TypeError(f"{type(self).__name__}({', '.join(self.FIELDS)}) got {len(args)} "
                            f"positional, unknown or repeated {extra} and missing {missing}")
        for key, value in values.items():
            kind, optional = self.TYPED.get(key, (None, True))
            if kind is not None and not (optional and value is None):
                require_real(key, value, integer=kind is int)
                value = int(value) if kind is int else require_finite(key, value)
            object.__setattr__(self, key, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, key, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot change {key!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(_equal(getattr(self, key), getattr(other, key)) for key in self.FIELDS)

    def __hash__(self):
        return hash(tuple(asdict(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{key}={value!r}" for key, value in asdict(self).items())
        return f"{type(self).__qualname__}({fields})"


def _equal(a, b) -> bool:
    """``a == b`` as one bool: an array equals another of its shape and values, also in a dict."""
    if a is b:
        return True
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[key], b[key]) for key in a)
    if hasattr(a, "__array__") or hasattr(b, "__array__"):
        import numpy as np

        return bool(np.array_equal(a, b))
    return a == b


def asdict(record: Record) -> dict:
    """Each field name of ``record`` mapped to its value, in declared order."""
    return {key: getattr(record, key) for key in record.FIELDS}


def replace(record: Record, /, **changes) -> Record:
    """A new record of ``record``'s type, its fields but ``changes`` kept; checked again."""
    return type(record)(**{**asdict(record), **changes})


def require_real(name: str, value, integer: bool = False) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a real number.

    With ``integer`` it must be an integer.  A bool is neither.
    """
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if integer else "a real number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")


def require_finite(name: str, value):
    """``value`` as the Python int or float it equals; ValueError naming ``name`` unless finite.

    A non-integral real is checked as the double it is, so a numpy float32 is
    compared without a cast, and a value type that stores the result stores a
    number JSON can print.  A Python int or float comes back unchanged.
    """
    require_real(name, value)
    try:
        value = int(value) if isinstance(value, numbers.Integral) else float(value)
    except OverflowError:  # a Fraction past the double range, checked as it is
        pass
    require(name, value, abs(value) <= FLOAT_MAX, "finite")
    return value


def real_array(name: str, value):
    """``value`` as a float array; ValueError naming ``name`` unless each element is a real number.

    The type is checked before the conversion, by :func:`require_real`'s rule:
    a bool, a string or any other element that is not a real number (None, a
    complex, a ragged list) is rejected, and an int past the double range is
    named as not finite.  A numpy array is judged by its dtype.
    """
    import numpy as np

    array = value if isinstance(value, np.ndarray) else np.asarray(value, dtype=object)
    if array.dtype == object:
        real = not any(isinstance(v, bool) or not isinstance(v, numbers.Real) for v in array.flat)
    else:
        real = array.dtype.kind in "iuf"
    if not real:
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return array.astype(float, copy=False)
    except OverflowError:  # an int past the double range
        raise ValueError(f"{name} must be finite, got {value}") from None


def require(name: str, values, ok, requirement: str) -> None:
    """Raise ``<name> must be <requirement>, got <value>`` unless ``ok`` holds everywhere.

    ``ok`` is a bool, or an array of them.  ``values`` is a scalar, named as
    given, or an array, named by its first element (as a float) where ``ok``
    is False.  NaN fails every comparison, so a range test written as ``ok``
    rejects it.
    """
    if isinstance(ok, bool):
        if ok:
            return
    else:
        import numpy as np

        ok = np.asarray(ok)
        if ok.all():
            return
        if np.ndim(values):
            values = np.asarray(values, dtype=float)[~ok].flat[0]
    raise ValueError(f"{name} must be {requirement}, got {values}")


def require_policy(policy) -> None:
    """Raise ValueError unless ``policy`` is one of POLICIES."""
    if policy not in POLICIES:
        raise ValueError(f"unknown vacuum policy {policy!r}")


def format_rows(line: str, columns, templates, sep: str = "") -> str:
    """``line`` filled once per row of the aligned 1-d ``columns``, the rows joined with ``sep``.

    Column k fills its slots with ``templates[k] % value``, formatting each
    distinct value once; where ``templates[k]`` is None its values, strings,
    fill them as they are.  Values are told apart by their bits, so -0.0 and
    0.0 keep their own strings, as does every NaN payload.
    """
    import numpy as np

    n = len(columns[0]) if len(columns) else 0
    lines = sep.join([line] * n)
    cells = np.empty((n, len(columns)), dtype=object)
    for k, (values, template) in enumerate(zip(columns, templates)):
        if template is None:
            cells[:, k] = values
            continue
        bits = np.ascontiguousarray(values, dtype=float).view(np.int64)
        bits, index = np.unique(bits, return_inverse=True)
        strings = np.array([template % v for v in bits.view(float).tolist()], dtype=object)
        cells[:, k] = strings[index]
    return lines % tuple(cells.ravel().tolist())
