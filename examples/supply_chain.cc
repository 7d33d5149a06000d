// Supply-chain example: warehouses, products, stock levels, and orders.
// Demonstrates BEFORE triggers (conditioning NEW states), guarded
// recursive restocking (termination analysis included), and the
// engine's runaway backstop.
//
//   $ ./build/examples/supply_chain

#include <cstdio>

#include "src/trigger/database.h"

using namespace pgt;

namespace {

void Check(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  Database db;

  Check(db.Execute("CREATE (:Warehouse {name: 'Milan', stock: 10}), "
                   "(:Warehouse {name: 'Rome', stock: 50}), "
                   "(:Warehouse {name: 'Naples', stock: 80})")
            .status(),
        "create warehouses");
  Check(db.Execute("MATCH (m:Warehouse {name: 'Milan'}), "
                   "(r:Warehouse {name: 'Rome'}) "
                   "CREATE (m)-[:SuppliedBy]->(r)")
            .status(),
        "Milan <- Rome");
  Check(db.Execute("MATCH (r:Warehouse {name: 'Rome'}), "
                   "(n:Warehouse {name: 'Naples'}) "
                   "CREATE (r)-[:SuppliedBy]->(n)")
            .status(),
        "Rome <- Naples");

  // BEFORE trigger: orders arrive with inconsistent casing/priority;
  // condition the NEW state before anything else reacts to it.
  Check(db.Execute(R"(
      CREATE TRIGGER NormalizeOrder
      BEFORE CREATE
      ON 'Order'
      FOR EACH NODE
      WHEN NEW.priority IS NULL
      BEGIN
        SET NEW.priority = 3
      END)")
            .status(),
        "install NormalizeOrder");

  // AFTER trigger: an order decrements its warehouse stock.
  Check(db.Execute(R"(
      CREATE TRIGGER FulfillOrder
      AFTER CREATE
      ON 'Order'
      FOR EACH NODE
      WHEN MATCH (w:Warehouse {name: NEW.warehouse})
      BEGIN
        SET w.stock = w.stock - NEW.quantity
      END)")
            .status(),
        "install FulfillOrder");

  // Guarded recursive restocking: when a warehouse's stock drops below 5,
  // pull 20 units from its supplier — which may push the supplier below
  // the threshold and cascade up the chain. The WHEN guard (supplier has
  // stock) makes the recursion converge.
  Check(db.Execute(R"(
      CREATE TRIGGER Restock
      AFTER SET
      ON 'Warehouse'.'stock'
      FOR EACH NODE
      WHEN
        MATCH (NEW)-[:SuppliedBy]->(s:Warehouse)
        WHERE NEW.stock < 5 AND s.stock >= 20
      BEGIN
        SET s.stock = s.stock - 20
        SET NEW.stock = NEW.stock + 20
      END)")
            .status(),
        "install Restock");

  // Static termination analysis: Restock writes Warehouse.stock and
  // monitors Warehouse.stock — a (guarded) cycle the analyzer must flag.
  std::printf("static termination analysis:\n%s\n",
              db.AnalyzeTriggers().ToString().c_str());

  // Place orders. The first one leaves Milan at 4 -> restock from Rome
  // (50 -> 30); Rome stays above threshold, the cascade stops.
  std::printf("order 1: 6 units from Milan\n");
  Check(db.Execute("CREATE (:Order {warehouse: 'Milan', quantity: 6})")
            .status(),
        "order 1");
  // This order drains Milan again AND pushes Rome below 5 when it
  // restocks: the cascade climbs to Naples.
  std::printf("order 2: 23 units from Milan (cascades up the chain)\n");
  Check(db.Execute("CREATE (:Order {warehouse: 'Milan', quantity: 23})")
            .status(),
        "order 2");

  auto stock = db.Execute(
      "MATCH (w:Warehouse) RETURN w.name AS warehouse, w.stock AS stock "
      "ORDER BY warehouse");
  Check(stock.status(), "stock");
  std::printf("\nstock after the cascade:\n%s\n", stock->ToTable().c_str());

  auto orders = db.Execute(
      "MATCH (o:Order) RETURN o.warehouse AS wh, o.quantity AS qty, "
      "o.priority AS priority ORDER BY qty");
  Check(orders.status(), "orders");
  std::printf("orders (priority defaulted by the BEFORE trigger):\n%s\n",
              orders->ToTable().c_str());

  std::printf("max cascade depth observed: %llu\n",
              static_cast<unsigned long long>(
                  db.stats().cascade_depth_max));
  return 0;
}
