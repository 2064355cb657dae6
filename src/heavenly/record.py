"""Record: the base of the package's value classes.

A record class names its fields in its annotations, in order, and a class
attribute of the same name is that field's default.  Records are built by
position or keyword, validated by __post_init__, compared field by field
with records of their own class, and printed as Name(field=value, ...).
Defining a record class generates no code, so importing the package builds
no class at run time.

A record is frozen: assigning or deleting an attribute raises
AttributeError, and the record hashes by its fields.  replace() gives a
changed copy.
"""

import operator


class Record:
    _fields = ()        # the field names, in order
    _required = ()      # the fields without a default
    _values = ()        # the field values, in order

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._required = tuple(name for name in cls._fields
                              if name not in cls.__dict__)
        if cls._fields:
            # one C call reads every field (every record has two or more)
            cls._values = property(operator.attrgetter(*cls._fields))

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name}() takes {len(self._fields)} fields, "
                            f"got {len(args)}")
        values = dict(zip(self._fields, args))
        for key, value in kwargs.items():
            if key in values or key not in self._fields:
                raise TypeError(f"{name}() got a repeated or unknown field "
                                f"{key!r}")
            values[key] = value
        missing = [key for key in self._required if key not in values]
        if missing:
            raise TypeError(f"{name}() missing fields {missing}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        """Refuse bad field values; a record without a rule takes any."""

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field {key!r} of a frozen "
                             f"{type(self).__name__}")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field {key!r} of a frozen "
                             f"{type(self).__name__}")

    def replace(self, **changes):
        """A copy with the given fields changed, validated as a new record."""
        return type(self)(**dict(zip(self._fields, self._values),
                                 **changes))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{key}={value!r}" for key, value
                           in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"
