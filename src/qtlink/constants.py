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
<requirement>, got <value>``.
FLOAT_MAX bounds a finite field: ``abs(value) <= FLOAT_MAX`` fails for NaN,
for an infinity and for an int too large for a double, where
``math.isfinite`` would raise OverflowError on that int.  A value type
stores what :func:`require_finite` returns, so a numpy scalar field is kept
as the Python number it equals.

:func:`format_rows` fills a line template once per row of a table's
columns, formatting each distinct value of a column once; it is the one
formatter of CSV rows, JSON rows and verify report lines.
Nothing here imports numpy until an array reaches it, so a command that
computes only Python reals never loads numpy.

:class:`Record` is the base of every value type: ``FIELDS`` maps its
annotated class attributes to their defaults (:data:`REQUIRED` if none).  It
binds arguments as a function would, checks them in ``__post_init__``, is
frozen and generates no code; :func:`asdict` gives its field values and
:func:`replace` rebuilds it with some changed, checked again.
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


class Record:
    """A frozen value type; ``FIELDS`` maps its annotated class attributes to their defaults."""

    def __init_subclass__(cls):
        names = cls.__dict__.get("__annotations__", {})
        cls.FIELDS = {name: cls.__dict__.get(name, REQUIRED) for name in names}

    def __init__(self, *args, **kwargs):
        given = dict(zip(self.FIELDS, args))
        extra = [key for key in kwargs if key not in self.FIELDS or key in given]
        values = {**self.FIELDS, **given, **kwargs}
        missing = [key for key, value in values.items() if value is REQUIRED]
        if len(args) > len(self.FIELDS) or extra or missing:
            raise TypeError(f"{type(self).__name__}({', '.join(self.FIELDS)}) got {len(args)} "
                            f"positional, unknown or repeated {extra} and missing {missing}")
        for key, value in values.items():
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
        return asdict(self) == asdict(other)

    def __hash__(self):
        return hash(tuple(asdict(self).values()))

    def __repr__(self):
        fields = ", ".join(f"{key}={value!r}" for key, value in asdict(self).items())
        return f"{type(self).__qualname__}({fields})"


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
