package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, count, lit, round, sum}
import repro.{Oracle, SparkSpec}
import repro.cfg.{CNF, CnfGrammar, Grammar, Queries}
import repro.data.Datasets
import repro.graph.LabeledGraph

/** Independent-system correctness: Q1, Q2 and plain reachability are
  * *linear* recursions, so they are expressible as DuckDB recursive CTEs.
  * The Spark DataFrame engine's output relation is checked row-for-row
  * against DuckDB via [[repro.Oracle.assertEquivalent]] — a wrong closure
  * step or broken kernel cannot produce "equivalent but wrong" output.
  * The last two tests check the oracle itself on a grouped aggregate.
  */
class OracleCTESpec extends SparkSpec {

  /** Q1 same-generation as a recursive CTE (paper Fig. 10 grammar).
    * `S(i,j)` ← one down/up pair, or a down/up pair wrapped around S.
    */
  private val q1Sql =
    """WITH RECURSIVE s(i, j) AS (
      |  SELECT e1.src, e2.dst
      |  FROM edges e1, edges e2
      |  WHERE e1.dst = e2.src
      |    AND ((e1.label = 'subClassOf_r' AND e2.label = 'subClassOf')
      |      OR (e1.label = 'type_r'       AND e2.label = 'type'))
      |  UNION
      |  SELECT e1.src, e2.dst
      |  FROM edges e1, s, edges e2
      |  WHERE e1.dst = s.i AND s.j = e2.src
      |    AND ((e1.label = 'subClassOf_r' AND e2.label = 'subClassOf')
      |      OR (e1.label = 'type_r'       AND e2.label = 'type'))
      |)
      |SELECT i, j FROM s
      |""".stripMargin

  /** Q2 (paper Fig. 11): B is the sco-only same-generation relation,
    * S = B·subClassOf ∪ subClassOf.
    */
  private val q2Sql =
    """WITH RECURSIVE b(i, j) AS (
      |  SELECT e1.src, e2.dst
      |  FROM edges e1, edges e2
      |  WHERE e1.dst = e2.src
      |    AND e1.label = 'subClassOf_r' AND e2.label = 'subClassOf'
      |  UNION
      |  SELECT e1.src, e2.dst
      |  FROM edges e1, b, edges e2
      |  WHERE e1.dst = b.i AND b.j = e2.src
      |    AND e1.label = 'subClassOf_r' AND e2.label = 'subClassOf'
      |)
      |SELECT src AS i, dst AS j FROM edges WHERE label = 'subClassOf'
      |UNION
      |SELECT b.i, e.dst AS j FROM b, edges e
      |WHERE b.j = e.src AND e.label = 'subClassOf'
      |""".stripMargin

  /** a+ reachability: regular grammar S → a S | a. */
  private val reachSql =
    """WITH RECURSIVE s(i, j) AS (
      |  SELECT src, dst FROM edges WHERE label = 'a'
      |  UNION
      |  SELECT e.src, s.j FROM edges e, s
      |  WHERE e.label = 'a' AND e.dst = s.i
      |)
      |SELECT i, j FROM s
      |""".stripMargin

  private val reachCnf: CnfGrammar = CNF.transform(Grammar.parse("S -> a S | a"))

  private def relation(graph: LabeledGraph, cnf: CnfGrammar): (DataFrame, DataFrame) = {
    val edges = graph.toDF(spark)
    val (rel, _) = new SparkDataFrameCFPQ(spark).solveDF(edges, cnf)
    val rs = rel.filter(col("nt") === "S").select(col("src").as("i"), col("dst").as("j"))
    (rs, edges)
  }

  private def checkQ1(graph: LabeledGraph): Unit = {
    val (rs, edges) = relation(graph, Queries.q1CnfPaper)
    Oracle.assertEquivalent(rs, q1Sql, "edges" -> edges)
  }

  private def checkQ2(graph: LabeledGraph): Unit = {
    val (rs, edges) = relation(graph, Queries.q2Cnf)
    Oracle.assertEquivalent(rs, q2Sql, "edges" -> edges)
  }

  test("paper example graph: Q1 relation matches DuckDB") {
    checkQ1(LabeledGraph.paperExample)
  }

  test("skos ontology: Q1 relation matches DuckDB") {
    checkQ1(Datasets.skos.graph)
  }

  test("generations ontology: Q1 relation matches DuckDB") {
    checkQ1(Datasets.generations.graph)
  }

  test("skos ontology: Q2 relation matches DuckDB") {
    checkQ2(Datasets.skos.graph)
  }

  test("univ-bench ontology: Q2 relation matches DuckDB") {
    checkQ2(Datasets.univBench.graph)
  }

  test("travel ontology: Q2 relation matches DuckDB") {
    checkQ2(Datasets.travel.graph)
  }

  test("regular reachability (S -> a S | a) matches DuckDB transitive closure") {
    val graph = LabeledGraph(Seq(
      (0, "a", 1), (1, "a", 2), (2, "a", 3), (3, "a", 1), // cycle 1→2→3→1
      (0, "b", 3),                                        // non-matching label
    ))
    val (rs, edges) = relation(graph, reachCnf)
    Oracle.assertEquivalent(rs, reachSql, "edges" -> edges)
  }

  test("sparse local engine agrees with DuckDB too (skos, Q1, via DataFrame round-trip)") {
    import spark.implicits._
    val graph = Datasets.skos.graph
    val pairs = SparseCFPQ.solve(graph, Queries.q1CnfPaper)("S").toSeq
    val rs = spark.createDataset(pairs).toDF("i", "j")
    Oracle.assertEquivalent(rs, q1Sql, "edges" -> graph.toDF(spark))
  }

  /** A few line items, enough for each return flag to group several rows. */
  private def lineitem: DataFrame = {
    import spark.implicits._
    Seq(("A", 17.0), ("N", 36.0), ("R", 8.5), ("A", 28.25), ("N", 2.0), ("N", 24.0))
      .toDF("l_returnflag", "l_quantity")
  }

  test("oracle validates a grouped aggregate against DuckDB") {
    val li = lineitem
    val got = li.groupBy("l_returnflag")
      .agg(count(lit(1)).as("cnt"), round(sum("l_quantity"), 2).as("qty"))
    Oracle.assertEquivalent(
      got,
      """SELECT l_returnflag,
        |       count(*) AS cnt,
        |       round(sum(CAST(l_quantity AS DOUBLE)), 2) AS qty
        |FROM lineitem GROUP BY l_returnflag""".stripMargin,
      "lineitem" -> li,
    )
  }

  test("oracle catches a wrong result (sanity of the oracle itself)") {
    val li = lineitem
    val wrong = li.groupBy("l_returnflag")
      .agg((count(lit(1)) + 1).as("cnt")) // off by one
    assertThrows[IllegalArgumentException] {
      Oracle.assertEquivalent(
        wrong,
        "SELECT l_returnflag, count(*) AS cnt FROM lineitem GROUP BY l_returnflag",
        "lineitem" -> li,
      )
    }
  }
}
