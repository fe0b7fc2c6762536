# Compliant counterpart for RPR003: each counter is an int attribute.


class CacheWithIntCounters:
    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        # Unrelated dict state is fine; only counter-named dicts are flagged.
        self._entries: dict = {}

    def counters(self) -> dict:
        return {"hits": self.hits, "misses": self.misses}
