"""Exception hierarchy shared by all iabsim modules."""


class IabSimError(Exception):
    """Base class for all simulator errors."""


# --- topology -------------------------------------------------------------

class TopologyError(IabSimError):
    pass


class DuplicateCu(TopologyError):
    pass


class DuplicateUpf(TopologyError):
    pass


class UnknownNode(TopologyError):
    pass


class IllegalMedium(TopologyError):
    pass


class MissingCarrier(TopologyError):
    pass


class NoDonorCoverage(TopologyError):
    pass


# --- tunneling / routing ---------------------------------------------------

class DepthExceeded(IabSimError):
    """Encapsulation would nest more than two headers; a routing bug."""


class NoRoute(IabSimError):
    def __init__(self, node, key):
        super().__init__(f"no route at {node} for {key}")
        self.node = node
        self.key = key


class ConflictingEntry(IabSimError):
    pass


class RoutingLoop(IabSimError):
    pass


# --- control plane ----------------------------------------------------------

class TransportDown(IabSimError):
    pass


class DuNotReady(IabSimError):
    pass


class NotActive(IabSimError):
    pass


# --- engine / io -------------------------------------------------------------

class ScenarioInvalid(IabSimError):
    pass


class UnknownFlow(IabSimError):
    pass


class ParseError(IabSimError):
    pass


class SchemaMismatch(IabSimError):
    pass
