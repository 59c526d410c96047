#ifndef ORDLOG_PERFBENCH_INPUTS_H_
#define ORDLOG_PERFBENCH_INPUTS_H_

// Seeded inputs and answer oracles for the serving benchmark. Every
// expected answer here is computed from the workload's definition (the
// policy, the graph, the paper's Example 5), never by asking ordlog.
// README.md in this directory gives the rationale and sizes.

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"  // bench/workloads.h: AccessControl, Example5Gadgets

namespace perfbench {

// One op of a /v1/<tenant>/mutate body.
struct ProgramOp {
  enum class Kind { kAddModule, kAddIsa, kAddRule, kAddFact };
  Kind kind = Kind::kAddRule;
  std::string module;
  std::string text;  // parent for kAddIsa, literal for kAddFact
};

inline std::string Trim(const std::string& s) {
  const size_t begin = s.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  const size_t end = s.find_last_not_of(" \t");
  return s.substr(begin, end - begin + 1);
}

// Splits generator output (`component NAME {` ... `}` blocks with one or
// more `.`-terminated rules per line, and `order A < B.` lines) into
// mutate ops: every module, then every isa edge, then the rules in
// source order. Bodyless rules become add_fact ops. Returns false on a
// line outside that format.
inline bool ProgramToOps(const std::string& text,
                         std::vector<ProgramOp>* out) {
  std::vector<ProgramOp> modules, edges, rules;
  std::set<std::string> declared;
  const auto declare = [&](const std::string& name) {
    if (declared.insert(name).second) {
      modules.push_back({ProgramOp::Kind::kAddModule, name, ""});
    }
  };
  std::istringstream lines(text);
  std::string line;
  std::string module;
  while (std::getline(lines, line)) {
    line = Trim(line);
    if (line.empty()) continue;
    if (line.rfind("component ", 0) == 0) {
      if (line.back() != '{' || !module.empty()) return false;
      module = Trim(line.substr(10, line.size() - 11));
      declare(module);
    } else if (line == "}") {
      if (module.empty()) return false;
      module.clear();
    } else if (line.rfind("order ", 0) == 0) {
      // order A < B.
      const size_t lt = line.find('<');
      if (lt == std::string::npos || line.back() != '.') return false;
      const std::string child = Trim(line.substr(6, lt - 6));
      const std::string parent =
          Trim(line.substr(lt + 1, line.size() - lt - 2));
      declare(child);
      declare(parent);
      edges.push_back({ProgramOp::Kind::kAddIsa, child, parent});
    } else {
      if (module.empty()) return false;
      size_t start = 0;
      while (start < line.size()) {
        const size_t dot = line.find('.', start);
        if (dot == std::string::npos) return false;
        const std::string rule = Trim(line.substr(start, dot - start));
        if (rule.find(":-") == std::string::npos) {
          rules.push_back({ProgramOp::Kind::kAddFact, module, rule});
        } else {
          rules.push_back({ProgramOp::Kind::kAddRule, module, rule + "."});
        }
        start = dot + 1;
        while (start < line.size() && line[start] == ' ') ++start;
      }
    }
  }
  if (!module.empty()) return false;
  out->clear();
  for (auto* part : {&modules, &edges, &rules}) {
    out->insert(out->end(), part->begin(), part->end());
  }
  return true;
}

inline const char* OpName(ProgramOp::Kind kind) {
  switch (kind) {
    case ProgramOp::Kind::kAddModule:
      return "add_module";
    case ProgramOp::Kind::kAddIsa:
      return "add_isa";
    case ProgramOp::Kind::kAddRule:
      return "add_rule";
    case ProgramOp::Kind::kAddFact:
      return "add_fact";
  }
  return "";
}

// The mutate body for `ops`. Generator text holds no quotes or
// backslashes, so no escaping is needed.
inline std::string OpsToJson(const std::vector<ProgramOp>& ops) {
  std::string body = "{\"ops\":[";
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) body += ',';
    body += "{\"op\":\"";
    body += OpName(ops[i].kind);
    body += "\",\"module\":\"" + ops[i].module + "\"";
    if (!ops[i].text.empty()) body += ",\"text\":\"" + ops[i].text + "\"";
    body += '}';
  }
  body += "]}";
  return body;
}

// ---------------------------------------------------------------------------
// read_hot: the AccessControl policy (site < dept < corp). Corp grants
// every user every resource, dept denies every `stride`-th (sensitive)
// resource, and site re-grants sensitive resource r to user r % users.

struct AccessPolicy {
  int users = 64;
  int resources = 128;
  int stride = 3;

  std::string Program() const {
    return ordlog_bench::AccessControl(users, resources, stride);
  }

  // Skeptical truth of access(u<u>, r<r>) (or its complement) in `site`.
  // The program has no closed-world default for `sensitive`, so for a
  // resource that is not sensitive, sensitive(r) is undefined rather than
  // false: dept's denial stays live and keeps corp's grant from firing,
  // and access is undefined. For a sensitive resource the denial fires
  // and overrules corp, except where site re-grants. Constants outside
  // the policy occur in no rule: undefined.
  const char* Truth(int u, int r, bool negated) const {
    if (u >= users || r >= resources || r % stride != 0) return "undefined";
    const bool granted = u == r % users;
    return granted != negated ? "true" : "false";
  }
};

// ---------------------------------------------------------------------------
// update_mix: ordered reachability over a `nodes`-node graph that starts
// as the chain n0 -> n1 -> ... and is edited by asserting and retracting
// link/blocked facts.
//
//   site  : -reach(X,Y) :- blocked(X,Y).            blocked facts
//   net   : reach(X,Y) :- link(X,Y).                link facts
//           reach(X,Z) :- link(X,Y), reach(Y,Z).
//   world : -blocked(X,Y) :- node(X), node(Y).      node facts
//   order site < net < world
//
// In `site`, a blocked pair's -reach overrules net's reach, and the
// recursive rule only walks through pairs that are reachable in `site`.
// So reach(a,b) is false when blocked(a,b), true when a link a->y leads
// to a y with reach(y,b) true (or a->b is a link), and undefined
// otherwise: the closed-world default keeps blocked from being undefined.

class ReachGraph {
 public:
  struct Fact {
    bool link = false;  // false: blocked
    int a = 0;
    int b = 0;
  };
  // One mutate: a single assert, or a retract of the three facts the
  // asserts since the previous retract added.
  struct Change {
    bool assert = true;
    std::vector<Fact> facts;
  };

  ReachGraph(int nodes, std::mt19937_64& rng) : n_(nodes) {
    for (int i = 0; i + 1 < n_; ++i) links_.insert({i, i + 1});
    while (blocked_.size() < 4) blocked_.insert(RandomPair(rng, n_ - 1));
    Recompute();
  }

  int nodes() const { return n_; }

  std::string Program() const {
    std::ostringstream site, net, world;
    site << "component site {\n  -reach(X, Y) :- blocked(X, Y).\n";
    for (const auto& [a, b] : blocked_) {
      site << "  blocked(n" << a << ", n" << b << ").\n";
    }
    net << "component net {\n  reach(X, Y) :- link(X, Y).\n"
        << "  reach(X, Z) :- link(X, Y), reach(Y, Z).\n";
    for (const auto& [a, b] : links_) {
      net << "  link(n" << a << ", n" << b << ").\n";
    }
    world << "component world {\n  -blocked(X, Y) :- node(X), node(Y).\n";
    for (int i = 0; i < n_; ++i) world << "  node(n" << i << ").\n";
    site << "}\n";
    net << "}\n";
    world << "}\n";
    return site.str() + net.str() + world.str() +
           "order site < net.\norder net < world.\n";
  }

  // Draws the next edit and applies it. Edits cycle assert, assert,
  // assert, retract (3:1 by count). An assert adds one absent fact: a link
  // spanning at most 3 nodes forward or a blocked pair, at even odds. The
  // retract withdraws the three facts just asserted, so every fourth
  // revision is the starting graph again and the cost of a cycle does not
  // drift over a run.
  Change Next(std::mt19937_64& rng) {
    Change change;
    change.assert = pending_.size() < 3;
    if (change.assert) {
      const bool link = rng() % 2 == 0;
      std::set<std::pair<int, int>>& facts = link ? links_ : blocked_;
      std::pair<int, int> pair;
      do {
        pair = RandomPair(rng, link ? 3 : n_ - 1);
      } while (facts.count(pair) != 0);
      facts.insert(pair);
      pending_.push_back({link, pair.first, pair.second});
      change.facts.push_back(pending_.back());
    } else {
      for (const Fact& fact : pending_) {
        (fact.link ? links_ : blocked_).erase({fact.a, fact.b});
      }
      change.facts.swap(pending_);
    }
    Recompute();
    return change;
  }

  // Skeptical truth of reach(n<a>, n<b>) in `site`.
  const char* Truth(int a, int b) const {
    if (blocked_.count({a, b}) != 0) return "false";
    return reach_[static_cast<size_t>(a * n_ + b)] ? "true" : "undefined";
  }

 private:
  // A pair a < b with b - a <= max_span.
  std::pair<int, int> RandomPair(std::mt19937_64& rng, int max_span) const {
    const int a = static_cast<int>(rng() % static_cast<uint64_t>(n_ - 1));
    const int span = std::min(max_span, n_ - 1 - a);
    const int b =
        a + 1 + static_cast<int>(rng() % static_cast<uint64_t>(span));
    return {a, b};
  }

  // Every edge points forward, so sources are settled from the last node
  // down: reach(a,b) holds via a link a->y with y == b or reach(y,b),
  // unless blocked(a,b).
  void Recompute() {
    reach_.assign(static_cast<size_t>(n_ * n_), false);
    for (int a = n_ - 1; a >= 0; --a) {
      for (auto it = links_.lower_bound({a, 0});
           it != links_.end() && it->first == a; ++it) {
        const int y = it->second;
        reach_[static_cast<size_t>(a * n_ + y)] = true;
        for (int b = y + 1; b < n_; ++b) {
          if (reach_[static_cast<size_t>(y * n_ + b)]) {
            reach_[static_cast<size_t>(a * n_ + b)] = true;
          }
        }
      }
      for (auto it = blocked_.lower_bound({a, 0});
           it != blocked_.end() && it->first == a; ++it) {
        reach_[static_cast<size_t>(a * n_ + it->second)] = false;
      }
    }
  }

  const int n_;
  std::vector<Fact> pending_;  // asserted since the last retract
  std::set<std::pair<int, int>> links_;
  std::set<std::pair<int, int>> blocked_;
  std::vector<bool> reach_;  // reach_[a * n + b]: reach(a,b) true in site
};

// ---------------------------------------------------------------------------
// stable_search: Example 5 (P5) repeated `gadgets` times, queried in c1.
// Each gadget i (c2: a_i. b_i. c_i.  c1: -a_i :- b_i, c_i.  -b_i :- a_i.
// -b_i :- -b_i.) has exactly two stable models, {a_i, -b_i, c_i} and
// {-a_i, b_i, c_i}; the gadgets are independent, so the view has
// 2^gadgets stable models, each picking one side per gadget.

struct GadgetProgram {
  int gadgets = 8;

  std::string Program() const {
    return ordlog_bench::Example5Gadgets(gadgets);
  }
  uint64_t ModelCount() const { return uint64_t{1} << gadgets; }

  // Whether literal `[-]<atom><i>` (atom in a/b/c) is in side 0 or 1 of
  // gadget i's stable pair.
  static bool InSide(char atom, bool negated, int side) {
    switch (atom) {
      case 'a':
        return negated == (side == 1);
      case 'b':
        return negated == (side == 0);
      default:  // c: true in both sides
        return !negated;
    }
  }
  static bool Brave(char atom, bool negated) {
    return InSide(atom, negated, 0) || InSide(atom, negated, 1);
  }
  static bool Cautious(char atom, bool negated) {
    return InSide(atom, negated, 0) && InSide(atom, negated, 1);
  }
};

}  // namespace perfbench

#endif  // ORDLOG_PERFBENCH_INPUTS_H_
