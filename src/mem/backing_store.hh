/**
 * @file
 * Sparse functional memory.
 *
 * Holds the actual bytes behind simulated physical memory so that the
 * datapath can be verified end-to-end: a value stored through the
 * ThymesisFlow stack must read back identically from donor memory.
 * Only non-zero content is stored: a page is created on the first
 * write that carries a non-zero byte. Reads of a page that was never
 * created return zeros, and all-zero writes to one are dropped, so the
 * timing-only traffic of the app models (which moves zero lines) costs
 * no host memory. A page that exists takes every write, zeros included.
 */

#ifndef TF_MEM_BACKING_STORE_HH
#define TF_MEM_BACKING_STORE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "mem/addr.hh"

namespace tf::mem {

class BackingStore
{
  public:
    BackingStore() = default;
    BackingStore(const BackingStore &) = delete;
    BackingStore &operator=(const BackingStore &) = delete;

    /** Copy @p len bytes at @p addr into @p dst. */
    void read(Addr addr, void *dst, std::uint64_t len) const;

    /** Copy @p len bytes from @p src into memory at @p addr. */
    void write(Addr addr, const void *src, std::uint64_t len);

    /** Read a little-endian 64-bit word. */
    std::uint64_t read64(Addr addr) const;

    /** Write a little-endian 64-bit word. */
    void write64(Addr addr, std::uint64_t value);

    /** Pages created so far (each on its first non-zero write). */
    std::size_t touchedPages() const { return _pages.size(); }

    /** Drop all contents. */
    void clear() { _pages.clear(); }

  private:
    using Page = std::array<std::uint8_t, pageBytes>;
    std::unordered_map<std::uint64_t, std::unique_ptr<Page>> _pages;
};

} // namespace tf::mem

#endif // TF_MEM_BACKING_STORE_HH
