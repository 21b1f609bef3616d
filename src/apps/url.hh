/**
 * @file
 * URL: content-based (URL-switching) load balancing (paper Section 2).
 *
 * The data plane parses the HTTP GET request line out of the payload,
 * matches the URL against the simulated-memory URL table, rewrites
 * the destination to the matched server, then routes the packet like
 * route does. Marked values per the paper: "url_entry", "final_dest",
 * "route_entry", "checksum", "ttl", "radix_node", "initialization".
 */

#ifndef CLUMSY_APPS_URL_HH
#define CLUMSY_APPS_URL_HH

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "apps/app.hh"
#include "apps/tables.hh"

namespace clumsy::apps
{

/** The URL-switching workload. */
class UrlApp : public BaseApp
{
  public:
    std::string name() const override { return "url"; }

    net::TraceConfig traceConfig() const override;

    void initialize(ClumsyProcessor &proc) override;

    void processPacket(ClumsyProcessor &proc, const net::Packet &pkt,
                       ValueRecorder &rec) override;

  private:
    std::unique_ptr<UrlTable> urls_;
    std::unique_ptr<RouteTable> routes_;
    /** std::string_view-probeable hash (heterogeneous lookup). */
    struct UrlHash
    {
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const noexcept
        {
            return std::hash<std::string_view>{}(s);
        }
    };

    /// Host-side ground truth: URL string -> table index (probed with
    /// a view of the wire payload, so no string is built per packet).
    std::unordered_map<std::string, std::uint32_t, UrlHash,
                       std::equal_to<>>
        urlIndex_;
    /// Host-side copy of the destination pool (entry i's server).
    std::vector<std::uint32_t> destPool_;
};

} // namespace clumsy::apps

#endif // CLUMSY_APPS_URL_HH
