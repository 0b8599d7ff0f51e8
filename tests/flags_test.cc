#include "util/flags.h"

#include <vector>

#include "gtest/gtest.h"

namespace treesim {
namespace {

FlagParser Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return FlagParser(static_cast<int>(args.size()),
                    const_cast<char**>(args.data()));
}

TEST(FlagParserTest, ParsesKeyValue) {
  FlagParser f = Parse({"--queries=25", "--tau=3.5", "--name=dblp"});
  EXPECT_EQ(f.GetInt("queries", 0), 25);
  EXPECT_DOUBLE_EQ(f.GetDouble("tau", 0.0), 3.5);
  EXPECT_EQ(f.GetString("name", ""), "dblp");
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  FlagParser f = Parse({});
  EXPECT_EQ(f.GetInt("queries", 7), 7);
  EXPECT_DOUBLE_EQ(f.GetDouble("tau", 1.5), 1.5);
  EXPECT_EQ(f.GetString("name", "d"), "d");
  EXPECT_FALSE(f.GetBool("full", false));
  EXPECT_TRUE(f.GetBool("full", true));
}

TEST(FlagParserTest, BoolForms) {
  FlagParser f = Parse({"--a", "--b=true", "--c=false", "--d=1", "--e=0"});
  EXPECT_TRUE(f.GetBool("a", false));
  EXPECT_TRUE(f.GetBool("b", false));
  EXPECT_FALSE(f.GetBool("c", true));
  EXPECT_TRUE(f.GetBool("d", false));
  EXPECT_FALSE(f.GetBool("e", true));
}

TEST(FlagParserDeathTest, UnparsableIntStopsNamingTheFlag) {
  // A typo must not run the default: `--queries=1O` would run 10 queries.
  FlagParser f = Parse({"--queries=1O", "--n=abc", "--big=99999999999999999999",
                        "--empty="});
  EXPECT_DEATH((void)f.GetInt("queries", 10), "--queries=1O");
  EXPECT_DEATH((void)f.GetInt("n", -1), "--n=abc");
  EXPECT_DEATH((void)f.GetInt("big", 0), "--big=99999999999999999999");
  EXPECT_EQ(f.GetInt("empty", 7), 7);  // given without a value
}

TEST(FlagParserDeathTest, UnparsableDoubleStopsNamingTheFlag) {
  FlagParser f = Parse({"--seconds=3O", "--x=1.2.3", "--huge=1e999"});
  EXPECT_DEATH((void)f.GetDouble("seconds", 10.0), "--seconds=3O");
  EXPECT_DEATH((void)f.GetDouble("x", -2.0), "--x=1.2.3");
  EXPECT_DEATH((void)f.GetDouble("huge", 0.0), "--huge=1e999");
}

TEST(FlagParserTest, PositionalArguments) {
  FlagParser f = Parse({"input.xml", "--k=5", "out.txt"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.xml");
  EXPECT_EQ(f.positional()[1], "out.txt");
}

TEST(FlagParserTest, HasDetectsPresence) {
  FlagParser f = Parse({"--k=5", "--flag"});
  EXPECT_TRUE(f.Has("k"));
  EXPECT_TRUE(f.Has("flag"));
  EXPECT_FALSE(f.Has("absent"));
}

TEST(FlagParserTest, UnknownKeys) {
  FlagParser f = Parse({"--k=5", "--typo=1"});
  const std::vector<std::string> unknown = f.UnknownKeys({"k", "queries"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(FlagParserTest, LastOccurrenceWins) {
  FlagParser f = Parse({"--k=5", "--k=9"});
  EXPECT_EQ(f.GetInt("k", 0), 9);
}

}  // namespace
}  // namespace treesim
