"""File-cache substrate (paper §6: 256 KB Linux-like cache, LRU, 30 s
dirty-data flush timer)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".filter": (
        "DiskAccess", "FilterResult", "filter_application", "filter_execution",
    ),
    ".lru": ("LRUMapping",),
    ".pc_eviction": ("PCAwarePageCache", "PCReusePredictor"),
    ".prefetch": ("PCStridePredictor", "PrefetchingPageCache"),
    ".page_cache": (
        "CacheConfig", "CacheStats", "CachedBlock", "PageCache", "WriteBack",
    ),
    ".writeback": ("FLUSH_FD", "coalesce_writebacks"),
})
