// LoaderFuzz: seeded mutation fuzz of the topology, trace and events
// loaders.
//
// Each case generates a small corpus in process (an AS-like topology, a web
// trace over it and a drift-event stream), writes it with the save_*
// functions and mutates it token by token: truncate the text, or drop,
// duplicate, swap, insert or overwrite tokens, inserting or overwriting
// with nan, 1e999, 4294967297, -1, # or junk.
// Every loader must then either return an object or throw wanplace::Error
// whose message starts with "<source>:<n>:", n a line of the mutated text.
// Any other exception fails the shard.
//
// Replay a failure with WANPLACE_FUZZ_SEED=<seed>; scale the suite with
// WANPLACE_FUZZ_COUNT.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "graph/io.h"
#include "lp_fuzz.h"  // fuzz_base_seed / fuzz_shard_count
#include "util/check.h"
#include "util/line_reader.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/trace.h"

namespace wanplace {
namespace {

using test::fuzz_base_seed;
using test::fuzz_shard_count;
using Lines = std::vector<std::vector<std::string>>;
using Loader = std::function<void(std::istream&, const std::string&)>;

struct Corpus {
  std::string topology;
  std::string trace;
  std::string events;
};

Corpus make_corpus(Rng& rng) {
  graph::AsLikeParams shape;
  shape.node_count = 4 + rng.uniform_index(5);
  const auto topology = graph::as_like(shape, rng);
  workload::WebParams web;
  web.shape.node_count = topology.node_count();
  web.shape.object_count = 3 + rng.uniform_index(6);
  web.shape.request_count = 20;
  web.shape.write_fraction = 0.2;
  const auto trace = workload::generate_web(web, rng);
  const auto node = [&] {
    return static_cast<graph::NodeId>(
        rng.uniform_index(topology.node_count()));
  };
  const auto fresh = static_cast<graph::NodeId>(topology.node_count());
  const std::vector<workload::Event> events{
      workload::DemandDeltaEvent{node(), rng.uniform_index(6), 0,
                                 rng.uniform(0.5, 4.0), 0.25},
      workload::NodeJoinEvent{120.0, {{node(), 80.0}, {node(), 95.5}}},
      workload::LatencyUpdateEvent{fresh, node(), rng.uniform(50, 150)},
      workload::NodeLeaveEvent{fresh},
  };
  std::ostringstream t, r, e;
  graph::save_topology(topology, t);
  trace.save(r);
  workload::save_events(events, e);
  return {t.str(), r.str(), e.str()};
}

Lines tokenize(const std::string& text) {
  Lines lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    lines.emplace_back(std::istream_iterator<std::string>(fields),
                       std::istream_iterator<std::string>());
  }
  return lines;
}

std::string join(const Lines& lines) {
  std::string text;
  for (const auto& line : lines) {
    for (std::size_t i = 0; i < line.size(); ++i)
      text += (i ? " " : "") + line[i];
    text += '\n';
  }
  return text;
}

/// One to three token mutations of `text`; a truncation ends the run.
std::string mutate(const std::string& text, Rng& rng) {
  static const char* const kSpecial[] = {"nan", "1e999", "4294967297",
                                         "-1",  "#",     "junk"};
  Lines lines = tokenize(text);
  // A random token slot: a line and a position on it (== size: the end).
  // A quarter of them fall in the first three lines, where the headers and
  // the topology's nodes and local_latency directives are.
  const auto slot = [&] {
    const auto line = rng.uniform_index(
        rng.bernoulli(0.25) ? std::min<std::size_t>(3, lines.size())
                            : lines.size());
    return std::pair{line, rng.uniform_index(lines[line].size() + 1)};
  };
  const auto steps = 1 + rng.uniform_index(3);
  for (std::size_t step = 0; step < steps; ++step) {
    const auto [line, pos] = slot();
    auto& tokens = lines[line];
    const bool on_token = pos < tokens.size();
    const char* special = kSpecial[rng.uniform_index(6)];
    switch (rng.uniform_index(6)) {
      case 0: {
        const std::string whole = join(lines);
        return whole.substr(0, rng.uniform_index(whole.size() + 1));
      }
      case 1:
        if (on_token) tokens.erase(tokens.begin() + pos);
        break;
      case 2:
        if (on_token) tokens.insert(tokens.begin() + pos, tokens[pos]);
        break;
      case 3: {
        const auto [other_line, other_pos] = slot();
        auto& others = lines[other_line];
        if (on_token && other_pos < others.size())
          std::swap(tokens[pos], others[other_pos]);
        break;
      }
      case 4:
        tokens.insert(tokens.begin() + pos, special);
        break;
      default:  // overwrite: a special token keeps the line's arity
        if (on_token) tokens[pos] = special;
    }
  }
  return join(lines);
}

std::size_t line_count(const std::string& text) {
  const auto newlines =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  return newlines + (!text.empty() && text.back() != '\n' ? 1 : 0);
}

/// `load` must accept `text` or reject it with "<source>:<n>:" where n is
/// one of its lines (line 1 for an empty text).
void expect_loads_or_locates(const Loader& load, const std::string& text) {
  const std::string source = "fuzz.txt";
  std::istringstream in(text);
  try {
    load(in, source);
  } catch (const Error& error) {
    const std::string what = error.what();
    ASSERT_EQ(what.rfind(source + ":", 0), 0u) << what << "\n" << text;
    const auto start = source.size() + 1;
    const auto line = parse_integer<std::size_t>(
        std::string_view(what).substr(start, what.find(':', start) - start));
    ASSERT_TRUE(line.has_value()) << what << "\n" << text;
    EXPECT_GE(*line, 1u) << what << "\n" << text;
    EXPECT_LE(*line, std::max<std::size_t>(line_count(text), 1))
        << what << "\n" << text;
  }
}

void fuzz_loader(const Loader& load, std::string Corpus::*file,
                 std::uint64_t offset) {
  const std::size_t cases = fuzz_shard_count();
  for (std::size_t c = 0; c < cases; ++c) {
    const std::uint64_t seed = fuzz_base_seed() + offset + c;
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::string text = make_corpus(rng).*file;
    // The unmutated corpus loads; each mutant loads or is located.
    std::istringstream clean(text);
    EXPECT_NO_THROW(load(clean, "corpus"));
    for (int mutant = 0; mutant < 10; ++mutant)
      expect_loads_or_locates(load, mutate(text, rng));
  }
}

TEST(LoaderFuzz, Topology) {
  fuzz_loader(
      [](std::istream& in, const std::string& source) {
        graph::load_topology(in, source);
      },
      &Corpus::topology, 0);
}

TEST(LoaderFuzz, Trace) {
  fuzz_loader(
      [](std::istream& in, const std::string& source) {
        workload::Trace::load(in, source);
      },
      &Corpus::trace, 100'000);
}

TEST(LoaderFuzz, Events) {
  fuzz_loader(
      [](std::istream& in, const std::string& source) {
        workload::load_events(in, source);
      },
      &Corpus::events, 200'000);
}

}  // namespace
}  // namespace wanplace
