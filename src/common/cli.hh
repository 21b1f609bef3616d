/**
 * @file
 * Declarative command-line argument parser shared by every binary
 * (clumsy_sim, clumsy_sweep, the bench executables).
 *
 * Each option is registered once with its name, value placeholder and
 * help line; parse() then handles value extraction, numeric
 * validation, --help (prints the generated usage text and exits 0)
 * and unknown-option diagnostics uniformly. Bare (non-dash) arguments
 * go to the positional handler when one is registered and are
 * rejected otherwise.
 */

#ifndef CLUMSY_COMMON_CLI_HH
#define CLUMSY_COMMON_CLI_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace clumsy::cli
{

/** Collects option definitions, then parses argv against them. */
class ArgParser
{
  public:
    /**
     * @param program  binary name shown in the usage line
     * @param summary  one-line description printed under the usage
     */
    ArgParser(std::string program, std::string summary);

    /** Start a titled option group in the usage text. */
    void section(const std::string &title);

    /** Boolean switch: sets *target to true when present. */
    void flag(const std::string &name, const std::string &help,
              bool *target);

    /** Boolean switch with a callback instead of a target. */
    void flag(const std::string &name, const std::string &help,
              std::function<void()> onSet);

    /** Option taking a value, delivered raw to @p onValue. */
    void option(const std::string &name, const std::string &metavar,
                const std::string &help,
                std::function<void(const std::string &)> onValue);

    // Typed conveniences (all fatal() on malformed numbers) ---------

    void optString(const std::string &name, const std::string &metavar,
                   const std::string &help, std::string *target);
    void optDouble(const std::string &name, const std::string &metavar,
                   const std::string &help, double *target);
    void optU64(const std::string &name, const std::string &metavar,
                const std::string &help, std::uint64_t *target);
    void optUnsigned(const std::string &name, const std::string &metavar,
                     const std::string &help, unsigned *target);

    /**
     * Accept bare arguments (no leading dash), e.g. workload names.
     * Without a positional handler, bare arguments are an error.
     */
    void positional(const std::string &metavar, const std::string &help,
                    std::function<void(const std::string &)> onValue);

    /** Free-form text appended after the option list in usage(). */
    void epilog(const std::string &text);

    /**
     * Parse the command line. Prints usage and exits 0 on --help/-h;
     * prints usage and fatal()s on unknown options, missing values or
     * malformed numbers.
     */
    void parse(int argc, char **argv) const;

    /** The generated help text. */
    std::string usage() const;

  private:
    struct Entry
    {
        bool isSection = false;
        std::string name;    ///< "--foo" (or section title)
        std::string metavar; ///< empty for flags
        std::string help;
        std::function<void(const std::string &)> onValue;
        std::function<void()> onSet;
    };

    std::string program_;
    std::string summary_;
    std::string positionalMetavar_;
    std::string positionalHelp_;
    std::function<void(const std::string &)> onPositional_;
    std::string epilog_;
    std::vector<Entry> entries_;

    const Entry *find(const std::string &name) const;
};

/** Parse a double, fatal()ing unless the whole string converts. */
double parseDouble(const std::string &opt, const std::string &value);

/** Parse an unsigned 64-bit integer with full-string validation. */
std::uint64_t parseU64(const std::string &opt, const std::string &value);

/**
 * parseU64 narrowed to 32 bits: fatal()s on a value above
 * UINT32_MAX rather than letting the cast wrap it (4294967298 -> 2).
 */
std::uint32_t parseU32(const std::string &opt, const std::string &value);

/** parseU64 narrowed to std::int64_t: fatal()s above INT64_MAX. */
std::int64_t parseNonNegI64(const std::string &opt,
                            const std::string &value);

/**
 * Split @p text on @p sep, trimming surrounding spaces from each
 * piece; empty pieces are dropped.
 */
std::vector<std::string> split(const std::string &text, char sep);

} // namespace clumsy::cli

#endif // CLUMSY_COMMON_CLI_HH
