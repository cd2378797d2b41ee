#include "graph/io.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <string_view>

#include "common/check.hpp"
#include "graph/builder.hpp"

namespace arbods {

namespace {

// Whitespace-separated tokens straight off the stream buffer; a token that
// starts with '#' comments out the rest of its line. Tokens are numbered
// from 1 so a diagnostic can point at the offending one.
class TokenReader {
 public:
  explicit TokenReader(std::istream& is) : buf_(*is.rdbuf()) {}

  /// The next non-comment token, empty at end of input.
  std::string_view next() {
    tok_.clear();
    int c = buf_.sgetc();
    while (true) {
      while (c != EOF && std::isspace(c)) c = buf_.snextc();
      if (c != '#') break;
      while (c != EOF && c != '\n') c = buf_.snextc();
    }
    while (c != EOF && !std::isspace(c)) {
      tok_.push_back(static_cast<char>(c));
      c = buf_.snextc();
    }
    if (!tok_.empty()) ++index_;
    return tok_;
  }

  /// The next token as a T; CheckError for end of input, a token that is
  /// not entirely a decimal integer, or one that overflows T.
  template <typename T>
  T number(const char* what) {
    const std::string_view tok = next();
    ARBODS_CHECK_MSG(!tok.empty(), "unexpected end of input reading "
                                       << what << " (token " << index_ + 1
                                       << ")");
    T value{};
    const auto [end, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), value);
    ARBODS_CHECK_MSG(ec != std::errc::result_out_of_range,
                     what << " token " << index_ << " '" << tok
                          << "' is out of range");
    ARBODS_CHECK_MSG(ec == std::errc() && end == tok.data() + tok.size(),
                     what << " token " << index_ << " '" << tok
                          << "' is not an integer");
    return value;
  }

  std::string_view last() const { return tok_; }
  std::size_t index() const { return index_; }

 private:
  std::streambuf& buf_;
  std::string tok_;
  std::size_t index_ = 0;
};

// Up-front edge reservation is capped so a corrupt edge count cannot ask
// for more memory than the file could ever fill; longer lists just grow.
constexpr std::size_t kMaxEdgeReserve = std::size_t{1} << 24;

Graph read_graph(TokenReader& in) {
  const auto n = in.number<NodeId>("node count");
  const auto m = in.number<std::size_t>("edge count");
  GraphBuilder b(n);
  b.reserve_edges(std::min(m, kMaxEdgeReserve));
  for (std::size_t i = 0; i < m; ++i) {
    NodeId ends[2];
    for (NodeId& end : ends) {
      end = in.number<NodeId>("edge endpoint");
      ARBODS_CHECK_MSG(end < n, "edge endpoint token "
                                    << in.index() << " '" << in.last()
                                    << "' is out of range n=" << n);
    }
    ARBODS_CHECK_MSG(ends[0] != ends[1], "edge " << i << " (token "
                                                 << in.index()
                                                 << ") is a self-loop at "
                                                 << ends[0]);
    b.add_edge(ends[0], ends[1]);
  }
  return std::move(b).build();
}
}  // namespace

void write_graph(std::ostream& os, const Graph& g) {
  os << g.num_nodes() << " " << g.num_edges() << "\n";
  for (const Edge& e : g.edges()) os << e.u << " " << e.v << "\n";
}

Graph read_graph(std::istream& is) {
  TokenReader in(is);
  return read_graph(in);
}

void write_weighted_graph(std::ostream& os, const WeightedGraph& wg) {
  write_graph(os, wg.graph());
  os << "weights\n";
  for (NodeId v = 0; v < wg.num_nodes(); ++v) os << wg.weight(v) << "\n";
}

WeightedGraph read_weighted_graph(std::istream& is) {
  TokenReader in(is);
  Graph g = read_graph(in);
  const std::string_view marker = in.next();
  ARBODS_CHECK_MSG(marker == "weights", "expected 'weights' marker (token "
                                            << in.index() << "), got '"
                                            << marker << "'");
  std::vector<Weight> w(g.num_nodes());
  for (Weight& weight : w) weight = in.number<Weight>("weight");
  return WeightedGraph(std::move(g), std::move(w));
}

void save_graph(const std::string& path, const Graph& g) {
  std::ofstream os(path);
  ARBODS_CHECK_MSG(os.good(), "cannot open " << path << " for writing");
  write_graph(os, g);
  ARBODS_CHECK_MSG(os.good(), "write to " << path << " failed");
}

Graph load_graph(const std::string& path) {
  std::ifstream is(path);
  ARBODS_CHECK_MSG(is.good(), "cannot open " << path);
  return read_graph(is);
}

}  // namespace arbods
