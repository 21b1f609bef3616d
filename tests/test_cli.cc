/**
 * @file
 * Tests of the shared command-line argument parser.
 */

#include <gtest/gtest.h>

#include <array>

#include "common/cli.hh"

using namespace clumsy;
using namespace clumsy::cli;

namespace
{

/** Build a mutable argv from string literals. */
template <std::size_t N>
std::array<char *, N>
makeArgv(const char *(&args)[N])
{
    std::array<char *, N> argv;
    for (std::size_t i = 0; i < N; ++i)
        argv[i] = const_cast<char *>(args[i]);
    return argv;
}

} // namespace

TEST(Cli, ParsesTypedOptionsAndFlags)
{
    std::string name;
    double cr = 1.0;
    std::uint64_t packets = 0;
    unsigned trials = 0;
    bool quick = false;

    ArgParser p("prog", "test");
    p.optString("--app", "NAME", "app", &name);
    p.optDouble("--cr", "X", "cr", &cr);
    p.optU64("--packets", "N", "packets", &packets);
    p.optUnsigned("--trials", "N", "trials", &trials);
    p.flag("--quick", "quick", &quick);

    const char *args[] = {"prog",      "--app",  "route", "--cr",
                          "0.5",       "--packets", "2000",
                          "--trials",  "8",      "--quick"};
    auto argv = makeArgv(args);
    p.parse(static_cast<int>(argv.size()), argv.data());

    EXPECT_EQ(name, "route");
    EXPECT_DOUBLE_EQ(cr, 0.5);
    EXPECT_EQ(packets, 2000u);
    EXPECT_EQ(trials, 8u);
    EXPECT_TRUE(quick);
}

TEST(Cli, CollectsPositionals)
{
    std::vector<std::string> pos;
    bool csv = false;
    ArgParser p("prog", "test");
    p.flag("--csv", "csv", &csv);
    p.positional("app", "apps",
                 [&pos](const std::string &v) { pos.push_back(v); });

    const char *args[] = {"prog", "crc", "--csv", "md5"};
    auto argv = makeArgv(args);
    p.parse(static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(pos, (std::vector<std::string>{"crc", "md5"}));
    EXPECT_TRUE(csv);
}

TEST(Cli, UsageListsOptionsAndSections)
{
    ArgParser p("prog", "summary line");
    std::string app;
    p.section("group");
    p.optString("--app", "NAME", "the app", &app);
    const std::string u = p.usage();
    EXPECT_NE(u.find("usage: prog"), std::string::npos);
    EXPECT_NE(u.find("summary line"), std::string::npos);
    EXPECT_NE(u.find("group:"), std::string::npos);
    EXPECT_NE(u.find("--app NAME"), std::string::npos);
    EXPECT_NE(u.find("the app"), std::string::npos);
}

TEST(CliDeath, RejectsUnknownOptionsAndBadNumbers)
{
    ArgParser p("prog", "test");
    double cr = 0;
    p.optDouble("--cr", "X", "cr", &cr);

    const char *unknown[] = {"prog", "--bogus"};
    auto argv1 = makeArgv(unknown);
    EXPECT_EXIT(p.parse(2, argv1.data()),
                testing::ExitedWithCode(1), "unknown option");

    const char *junkNum[] = {"prog", "--cr", "fast"};
    auto argv2 = makeArgv(junkNum);
    EXPECT_EXIT(p.parse(3, argv2.data()),
                testing::ExitedWithCode(1), "not a number");

    const char *missing[] = {"prog", "--cr"};
    auto argv3 = makeArgv(missing);
    EXPECT_EXIT(p.parse(2, argv3.data()),
                testing::ExitedWithCode(1), "missing");

    const char *positional[] = {"prog", "stray"};
    auto argv4 = makeArgv(positional);
    EXPECT_EXIT(p.parse(2, argv4.data()),
                testing::ExitedWithCode(1), "unexpected argument");
}

TEST(Cli, ParseU32KeepsTheWhole32BitRange)
{
    EXPECT_EQ(parseU32("n", "0"), 0u);
    EXPECT_EQ(parseU32("n", "4294967295"), 4294967295u);

    // Past UINT32_MAX a narrowing cast would wrap (4294967298 -> 2);
    // both the helper and optUnsigned must refuse instead.
    EXPECT_EXIT(parseU32("--pes", "4294967298"),
                testing::ExitedWithCode(1), "out of range");
    unsigned pes = 0;
    ArgParser p("prog", "test");
    p.optUnsigned("--pes", "N", "pes", &pes);
    const char *wraps[] = {"prog", "--pes", "4294967296"};
    auto argv = makeArgv(wraps);
    EXPECT_EXIT(p.parse(3, argv.data()), testing::ExitedWithCode(1),
                "--pes: '4294967296' is out of range");
}

TEST(Cli, SplitTrimsAndDropsEmpties)
{
    EXPECT_EQ(split("a, b ,,c", ','),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(split("", ';'), std::vector<std::string>{});
    EXPECT_EQ(split("one", ';'), std::vector<std::string>{"one"});
}
