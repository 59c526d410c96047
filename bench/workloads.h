#ifndef ORDLOG_BENCH_WORKLOADS_H_
#define ORDLOG_BENCH_WORKLOADS_H_

// Workload generators for the reproduction benchmarks: scaled-up versions
// of the paper's figure programs plus classical logic-programming
// workloads (transitive closure, chains) used to exercise the substrates.

#include <random>
#include <sstream>
#include <string>

namespace ordlog_bench {

// Figure 1 at scale: `n` bird species, every `exception_stride`-th species
// is a grounded exception (penguin-like). Two components, c1 < c2.
inline std::string Fig1Birds(int n, int exception_stride = 4) {
  std::ostringstream c2, c1;
  c2 << "component c2 {\n"
        "  fly(X) :- bird(X).\n"
        "  -ground_animal(X) :- bird(X).\n";
  c1 << "component c1 {\n"
        "  -fly(X) :- ground_animal(X).\n";
  for (int i = 0; i < n; ++i) {
    c2 << "  bird(species" << i << ").\n";
    if (i % exception_stride == 0) {
      c1 << "  ground_animal(species" << i << ").\n";
    }
  }
  c2 << "}\n";
  c1 << "}\n";
  return c2.str() + c1.str() + "order c1 < c2.\n";
}

// Figure 2 at scale: `k` independent pairs of mutually contradicting
// expert components, all inherited by a bottom component c0 that draws a
// conclusion from each pair. Everything defeats; c0 derives nothing.
inline std::string Fig2Experts(int k) {
  std::ostringstream out;
  out << "component c0 {\n";
  for (int i = 0; i < k; ++i) {
    out << "  conclusion" << i << " :- claim" << i << ".\n";
  }
  out << "}\n";
  for (int i = 0; i < k; ++i) {
    out << "component pro" << i << " { claim" << i << ". }\n";
    out << "component con" << i << " { -claim" << i << ". }\n";
    out << "order c0 < pro" << i << ".\n";
    out << "order c0 < con" << i << ".\n";
  }
  return out.str();
}

// Figure 3 at scale: `experts` independent advisor components, each with
// its own inflation threshold, plus the paper's Expert3/Expert4 pair and
// the two scenario facts.
inline std::string Fig3Loan(int experts, int inflation, int rate) {
  std::ostringstream out;
  out << "component c1 {\n"
      << "  inflation(" << inflation << ").\n"
      << "  loan_rate(" << rate << ").\n"
      << "}\n";
  for (int i = 0; i < experts; ++i) {
    out << "component expert" << i << " {\n"
        << "  take_loan :- inflation(X), X > " << (10 + i % 7) << ".\n"
        << "}\n"
        << "order c1 < expert" << i << ".\n";
  }
  out << "component c4 { -take_loan :- loan_rate(X), X > 14. }\n"
      << "component c3 {\n"
      << "  take_loan :- inflation(X), loan_rate(Y), X > Y + 2.\n"
      << "}\n"
      << "order c1 < c3.\n"
      << "order c3 < c4.\n";
  return out.str();
}

// Example 5 at scale: `k` independent copies of the P5 gadget. Each copy
// contributes a binary choice, so the program has 2^k stable models.
inline std::string Example5Gadgets(int k) {
  std::ostringstream c2, c1;
  c2 << "component c2 {\n";
  c1 << "component c1 {\n";
  for (int i = 0; i < k; ++i) {
    c2 << "  a" << i << ". b" << i << ". c" << i << ".\n";
    c1 << "  -a" << i << " :- b" << i << ", c" << i << ".\n"
       << "  -b" << i << " :- a" << i << ".\n"
       << "  -b" << i << " :- -b" << i << ".\n";
  }
  c2 << "}\n";
  c1 << "}\n";
  return c2.str() + c1.str() + "order c1 < c2.\n";
}

// Example 6 at scale: ancestor over a parent chain of `n` nodes
// (n-1 parent facts). Used with OrderedVersion for the Section 3 benches.
inline std::string AncestorChain(int n) {
  std::ostringstream out;
  for (int i = 0; i + 1 < n; ++i) {
    out << "parent(n" << i << ", n" << i + 1 << ").\n";
  }
  out << "anc(X, Y) :- parent(X, Y).\n"
      << "anc(X, Y) :- parent(X, Z), anc(Z, Y).\n";
  return out.str();
}

// Deep-recursion transitive closure over an `n`-node edge chain, in one
// component with non-ground rules. The recursion runs n rounds deep and
// the least model holds O(n^2) tc tuples, while a ground instantiation
// of the recursive rule materializes O(n^3) candidate instances, which
// every engine over a pre-grounded program pays for.
inline std::string TcChain(int n) {
  std::ostringstream out;
  out << "component c {\n";
  for (int i = 0; i + 1 < n; ++i) {
    out << "  edge(n" << i << ", n" << i + 1 << ").\n";
  }
  out << "  tc(X, Y) :- edge(X, Y).\n"
      << "  tc(X, Z) :- edge(X, Y), tc(Y, Z).\n"
      << "}\n";
  return out.str();
}

// Example 9 at scale: `n` colors of which `ugly` are ugly.
inline std::string Colors(int n, int ugly) {
  std::ostringstream out;
  out << "component c {\n";
  for (int i = 0; i < n; ++i) {
    out << "  color(col" << i << ").\n";
    if (i < ugly) out << "  ugly_color(col" << i << ").\n";
  }
  out << "  color(X) :- ugly_color(X).\n"
      << "  colored(X) :- color(X), -colored(Y), X != Y.\n"
      << "  -colored(X) :- ugly_color(X).\n"
      << "}\n";
  return out.str();
}

// A propositional derivation chain of length `n` under explicit closure:
// p0. p{i+1} :- p{i}. plus a closed-world component. Stresses the V
// fixpoint (n+1 iterations).
inline std::string Chain(int n) {
  std::ostringstream c, base;
  c << "component c {\n  p0.\n";
  base << "component base {\n";
  for (int i = 0; i < n; ++i) {
    c << "  p" << i + 1 << " :- p" << i << ".\n";
  }
  for (int i = 0; i <= n; ++i) {
    base << "  -p" << i << ".\n";
  }
  c << "}\n";
  base << "}\n";
  return c.str() + base.str() + "order c < base.\n";
}

// Access-control at scale: a site policy layered over department and
// corporate defaults (site < dept < corp). Corp grants everyone access to
// every resource; dept denies the sensitive stride; site re-grants a few
// named exceptions. Mirrors examples/programs/access_control.olp.
inline std::string AccessControl(int users, int resources,
                                 int sensitive_stride = 3) {
  std::ostringstream corp, dept, site;
  corp << "component corp {\n"
          "  access(U, R) :- user(U), resource(R).\n";
  dept << "component dept {\n"
          "  -access(U, R) :- user(U), sensitive(R).\n";
  site << "component site {\n";
  for (int u = 0; u < users; ++u) {
    corp << "  user(u" << u << ").\n";
  }
  for (int r = 0; r < resources; ++r) {
    corp << "  resource(r" << r << ").\n";
    if (r % sensitive_stride == 0) {
      dept << "  sensitive(r" << r << ").\n";
    }
  }
  // One trusted user per sensitive resource gets a site-level override.
  for (int r = 0; r < resources; r += sensitive_stride) {
    site << "  access(u" << (r % users) << ", r" << r << ").\n";
  }
  corp << "}\n";
  dept << "}\n";
  site << "}\n";
  return site.str() + dept.str() + corp.str() +
         "order site < dept.\norder dept < corp.\n";
}

// The Figure 3 loan program as a grid: `n` integer facts for inflation
// and loan_rate plus `n` expert components whose thresholds sit near the
// top of the range. Stresses both substrates: the grounder (the c3 rule
// instantiates |HU|^2 candidates; value-sorted range scans prune them)
// and the least-model engines (hundreds of components, hundreds of
// thousands of ground rule statuses to settle).
inline std::string LoanGrid(int n) {
  std::ostringstream out;
  out << "component c1 {\n";
  for (int i = 0; i < n; ++i) {
    out << "  inflation(" << i << ").\n  loan_rate(" << i << ").\n";
  }
  out << "}\n";
  for (int i = 0; i < n; ++i) {
    out << "component expert" << i << " {\n"
        << "  take_loan :- inflation(X), X > " << (n - 1 - i % 4) << ".\n"
        << "}\n"
        << "order c1 < expert" << i << ".\n";
  }
  out << "component c4 { -take_loan :- loan_rate(X), X > " << (n - 2)
      << ". }\n"
      << "component c3 {\n"
      << "  take_loan :- inflation(X), loan_rate(Y), X > Y + " << (n - 3)
      << ".\n}\n"
      << "order c1 < c3.\norder c3 < c4.\n";
  return out.str();
}

// Random seminegative program text over `atoms` propositional atoms.
inline std::string RandomSeminegative(std::mt19937& rng, int atoms,
                                      int rules, int max_body) {
  std::uniform_int_distribution<int> atom(0, atoms - 1);
  std::uniform_int_distribution<int> body(0, max_body);
  std::bernoulli_distribution negative(0.4);
  std::ostringstream out;
  for (int r = 0; r < rules; ++r) {
    out << "q" << atom(rng);
    const int size = body(rng);
    for (int b = 0; b < size; ++b) {
      out << (b == 0 ? " :- " : ", ") << (negative(rng) ? "-" : "") << "q"
          << atom(rng);
    }
    out << ".\n";
  }
  return out.str();
}

}  // namespace ordlog_bench

#endif  // ORDLOG_BENCH_WORKLOADS_H_
