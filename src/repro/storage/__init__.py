"""Term interning: the dense integer ids the engine works over.

Every :class:`repro.lang.instance.Instance` interns its constants and
nulls in one :class:`TermTable`; its columns, posting lists and the
compiled join plans of :mod:`repro.homomorphism.plan` then compare
plain ints instead of hashing term objects.
"""

from repro.storage.interning import TermTable

__all__ = ["TermTable"]
