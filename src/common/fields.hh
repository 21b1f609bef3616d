/**
 * @file
 * Field tables: a struct's members listed once, as rows.
 *
 * Each metric struct (core::RunMetrics, the core::ExperimentResult
 * aggregates, npu::ChipMetrics, linecard::CardMetrics) declares one
 * row list next to its definition: a std::tuple of Field rows in
 * document order. The code that must touch every field walks the
 * list: the sweep's JSON writer and --resume reader (sweep/json.hh)
 * and the trial mean below. Adding a metric takes one member and one
 * row.
 */

#ifndef CLUMSY_COMMON_FIELDS_HH
#define CLUMSY_COMMON_FIELDS_HH

#include <cstddef>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/logging.hh"

namespace clumsy
{

/** How a field appears in written documents and what a read needs. */
enum class Presence
{
    Required,       ///< always written; must be present on read
    OptionalOnRead, ///< always written; absent in older documents
    ElidedAtZero,   ///< written only when nonzero; optional on read
};

/** One row: a member of S, its JSON name and its presence. */
template <typename S, typename T>
struct Field
{
    using Value = T;

    const char *name;
    T S::*member;
    Presence presence = Presence::Required;
};

/** Call @p fn on every row of @p rows, in order. */
template <typename Rows, typename Fn>
void
forEachField(const Rows &rows, Fn &&fn)
{
    std::apply([&](const auto &...row) { (fn(row), ...); }, rows);
}

/**
 * Componentwise mean of @p runs, accumulated in the given (trial)
 * order: every double row is summed from zero and divided by the run
 * count, every vector<double> row elementwise at the first run's
 * length. Members without a row keep their defaults.
 */
template <typename S, typename Rows>
S
fieldMean(const std::vector<S> &runs, const Rows &rows)
{
    CLUMSY_ASSERT(!runs.empty(), "need at least one run to average");
    const double n = static_cast<double>(runs.size());
    S avg;
    forEachField(rows, [&](const auto &row) {
        using T = typename std::decay_t<decltype(row)>::Value;
        T &acc = avg.*row.member;
        if constexpr (std::is_same_v<T, double>) {
            acc = 0.0;
            for (const S &run : runs)
                acc += run.*row.member;
            acc /= n;
        } else {
            static_assert(std::is_same_v<T, std::vector<double>>,
                          "a trial mean averages doubles");
            acc.assign((runs.front().*row.member).size(), 0.0);
            for (const S &run : runs) {
                const T &v = run.*row.member;
                CLUMSY_ASSERT(v.size() == acc.size(),
                              "%s: runs differ in length", row.name);
                for (std::size_t i = 0; i < acc.size(); ++i)
                    acc[i] += v[i];
            }
            for (double &v : acc)
                v /= n;
        }
    });
    return avg;
}

} // namespace clumsy

#endif // CLUMSY_COMMON_FIELDS_HH
