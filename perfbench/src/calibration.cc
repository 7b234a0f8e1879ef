#include "calibration.hh"

#include <chrono>
#include <functional>
#include <queue>
#include <unordered_map>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** 32 MiB: far beyond a core's L2, well inside the shared L3. */
constexpr std::size_t kTableWords = (32u << 20) / sizeof(std::uint64_t);
// Phase sizes, each about 8 ms on the reference VM.
constexpr int kHashSteps = 4'000'000;
constexpr int kMapSteps = 50'000;
constexpr int kTableSteps = 40'000;

double
seconds(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

std::uint64_t
lcg(std::uint64_t &x)
{
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x;
}

using MinHeap = std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                                    std::greater<>>;

MinHeap
filledHeap(std::size_t n, std::uint64_t &x)
{
    MinHeap q;
    for (std::size_t i = 0; i < n; ++i)
        q.push(lcg(x) >> 20);
    return q;
}

} // namespace

Calibration::Calibration() : _table(kTableWords, 1) {}

std::size_t
Calibration::tableBytes() const
{
    return _table.size() * sizeof(std::uint64_t);
}

double
Calibration::pass()
{
    const Clock::time_point start = Clock::now();
    std::uint64_t x = 7;

    // Core speed: a dependent xorshift chain.
    std::uint64_t h = 1;
    for (int i = 0; i < kHashSteps; ++i) {
        h ^= h << 13;
        h ^= h >> 7;
        h ^= h << 17;
    }

    // Cache-resident pointer work: pop the earliest timestamp,
    // schedule a later one, count it in a 64k-key map.
    {
        MinHeap q = filledHeap(4096, x);
        std::unordered_map<std::uint64_t, std::uint64_t> m;
        for (int i = 0; i < kMapSteps; ++i) {
            const std::uint64_t t = q.top();
            q.pop();
            q.push(t + (lcg(x) >> 44));
            m[x & 0xffff] += t;
        }
        h += m.size();
    }

    // Shared cache and memory: the same queue feeding random
    // read-modify-writes over the table.
    {
        MinHeap q = filledHeap(16384, x);
        const std::size_t mask = _table.size() - 1;
        for (int i = 0; i < kTableSteps; ++i) {
            const std::uint64_t t = q.top();
            q.pop();
            q.push(t + (lcg(x) >> 44));
            _table[(x >> 17) & mask] += t;
        }
        h += _table[x & mask];
    }

    _sink += h;
    return seconds(start);
}

void
Calibration::sample(double budgetS)
{
    const Clock::time_point start = Clock::now();
    do
        _passS.push_back(pass());
    while (seconds(start) < budgetS);
}

} // namespace perfbench
