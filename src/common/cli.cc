#include "common/cli.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/logging.hh"

namespace clumsy::cli
{

double
parseDouble(const std::string &opt, const std::string &value)
{
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (errno != 0 || end == value.c_str() || *end != '\0')
        fatal("%s: '%s' is not a number", opt.c_str(), value.c_str());
    return v;
}

std::uint64_t
parseU64(const std::string &opt, const std::string &value)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long v =
        std::strtoull(value.c_str(), &end, 10);
    // strtoull accepts and negates a leading minus; a count option
    // must reject it instead.
    if (errno != 0 || end == value.c_str() || *end != '\0' ||
        value.find('-') != std::string::npos)
        fatal("%s: '%s' is not an unsigned integer", opt.c_str(),
              value.c_str());
    return v;
}

std::uint32_t
parseU32(const std::string &opt, const std::string &value)
{
    const std::uint64_t v = parseU64(opt, value);
    if (v > std::numeric_limits<std::uint32_t>::max())
        fatal("%s: '%s' is out of range (max %u)", opt.c_str(),
              value.c_str(), std::numeric_limits<std::uint32_t>::max());
    return static_cast<std::uint32_t>(v);
}

std::int64_t
parseNonNegI64(const std::string &opt, const std::string &value)
{
    const std::uint64_t v = parseU64(opt, value);
    if (v > static_cast<std::uint64_t>(
                std::numeric_limits<std::int64_t>::max()))
        fatal("%s: '%s' is out of range", opt.c_str(), value.c_str());
    return static_cast<std::int64_t>(v);
}

std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t end = text.find(sep, start);
        if (end == std::string::npos)
            end = text.size();
        std::string piece = text.substr(start, end - start);
        while (!piece.empty() && piece.front() == ' ')
            piece.erase(piece.begin());
        while (!piece.empty() && piece.back() == ' ')
            piece.pop_back();
        if (!piece.empty())
            out.push_back(std::move(piece));
        start = end + 1;
    }
    return out;
}

ArgParser::ArgParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary))
{
}

void
ArgParser::section(const std::string &title)
{
    Entry e;
    e.isSection = true;
    e.name = title;
    entries_.push_back(std::move(e));
}

void
ArgParser::flag(const std::string &name, const std::string &help,
                bool *target)
{
    flag(name, help, [target]() { *target = true; });
}

void
ArgParser::flag(const std::string &name, const std::string &help,
                std::function<void()> onSet)
{
    Entry e;
    e.name = name;
    e.help = help;
    e.onSet = std::move(onSet);
    entries_.push_back(std::move(e));
}

void
ArgParser::option(const std::string &name, const std::string &metavar,
                  const std::string &help,
                  std::function<void(const std::string &)> onValue)
{
    Entry e;
    e.name = name;
    e.metavar = metavar;
    e.help = help;
    e.onValue = std::move(onValue);
    entries_.push_back(std::move(e));
}

void
ArgParser::optString(const std::string &name, const std::string &metavar,
                     const std::string &help, std::string *target)
{
    option(name, metavar, help,
           [target](const std::string &v) { *target = v; });
}

void
ArgParser::optDouble(const std::string &name, const std::string &metavar,
                     const std::string &help, double *target)
{
    option(name, metavar, help, [name, target](const std::string &v) {
        *target = parseDouble(name, v);
    });
}

void
ArgParser::optU64(const std::string &name, const std::string &metavar,
                  const std::string &help, std::uint64_t *target)
{
    option(name, metavar, help, [name, target](const std::string &v) {
        *target = parseU64(name, v);
    });
}

void
ArgParser::optUnsigned(const std::string &name,
                       const std::string &metavar,
                       const std::string &help, unsigned *target)
{
    option(name, metavar, help, [name, target](const std::string &v) {
        *target = parseU32(name, v);
    });
}

void
ArgParser::positional(const std::string &metavar, const std::string &help,
                      std::function<void(const std::string &)> onValue)
{
    positionalMetavar_ = metavar;
    positionalHelp_ = help;
    onPositional_ = std::move(onValue);
}

void
ArgParser::epilog(const std::string &text)
{
    epilog_ = text;
}

const ArgParser::Entry *
ArgParser::find(const std::string &name) const
{
    for (const Entry &e : entries_) {
        if (!e.isSection && e.name == name)
            return &e;
    }
    return nullptr;
}

void
ArgParser::parse(int argc, char **argv) const
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage().c_str(), stdout);
            std::exit(0);
        }
        if (!arg.empty() && arg[0] != '-') {
            if (!onPositional_) {
                std::fputs(usage().c_str(), stderr);
                fatal("unexpected argument '%s'", arg.c_str());
            }
            onPositional_(arg);
            continue;
        }
        const Entry *e = find(arg);
        if (!e) {
            std::fputs(usage().c_str(), stderr);
            fatal("unknown option '%s'", arg.c_str());
        }
        if (e->onSet) {
            e->onSet();
            continue;
        }
        if (i + 1 >= argc)
            fatal("missing %s value for %s", e->metavar.c_str(),
                  arg.c_str());
        e->onValue(argv[++i]);
    }
}

std::string
ArgParser::usage() const
{
    std::string out = "usage: " + program_ + " [options]";
    if (onPositional_)
        out += " [" + positionalMetavar_ + " ...]";
    out += "\n";
    if (!summary_.empty())
        out += "\n" + summary_ + "\n";
    if (onPositional_ && !positionalHelp_.empty())
        out += "\n  " + positionalMetavar_ + "  " + positionalHelp_ +
               "\n";

    std::size_t width = 0;
    for (const Entry &e : entries_) {
        if (e.isSection)
            continue;
        std::size_t w = e.name.size();
        if (!e.metavar.empty())
            w += 1 + e.metavar.size();
        width = std::max(width, w);
    }

    for (const Entry &e : entries_) {
        if (e.isSection) {
            out += "\n" + e.name + ":\n";
            continue;
        }
        std::string left = e.name;
        if (!e.metavar.empty())
            left += " " + e.metavar;
        out += "  " + left;
        out.append(width + 2 > left.size() ? width + 2 - left.size() : 1,
                   ' ');
        out += e.help + "\n";
    }
    if (!epilog_.empty())
        out += "\n" + epilog_ + "\n";
    return out;
}

} // namespace clumsy::cli
