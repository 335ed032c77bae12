package repro.core

import scala.collection.mutable.ListBuffer
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, explode, lit, max, typedLit}
import org.apache.spark.storage.StorageLevel
import repro.cfg.CnfGrammar
import repro.graph.LabeledGraph

/** Algorithm 1 in relational (Catalyst) terms, semi-naive over `T(nt, src,
  * dst, fresh)`: "A ∈ T[i,j]" as rows, nonterminals as `Int` ids, `fresh`
  * marking `Δ` (`Δ₀ = T₀`, [[MatrixInit]]'s cells). One step, with the rules
  * a literal map `byB` from `b` to its `(a, c)` pairs:
  * {{{
  *   prod = π_{a, l.src, r.dst}(T l ⋈_{l.dst = r.src ∧ r.nt = c ∧ (l.fresh ∨ r.fresh)} T r), (a, c) ∈ byB(l.nt)
  *   T'   = γ_{nt, src, dst; fresh = no row of T}(T ∪ prod)
  * }}}
  * One aggregation is both DISTINCT and `∖ T`. Every product has a `Δ` operand,
  * so by [[Closure.fresh]]'s argument the iterates are Algorithm 1's and the
  * fresh rows are what a step added. `T` is pinned as packed blocks and each
  * frame rebuilt over them: `Dataset.localCheckpoint()` would keep the plan's
  * `sizeInBytes`, which compounds here to ~3^k digits (minutes on wine).
  */
final class SparkDataFrameCFPQ(spark: SparkSession) extends CFPQEngine {
  import SparkDataFrameCFPQ._
  override val name = "SparkDF"

  override def solve(graph: LabeledGraph, grammar: CnfGrammar): CFPQResult = {
    import spark.implicits._
    val names = grammar.nonterminals.toIndexedSeq.sorted
    val id = names.zipWithIndex.toMap
    val t0 = MatrixInit.cells(graph, grammar).toSeq
      .flatMap { case (nt, pairs) => pairs.map { case (s, d) => (id(nt), s, d, true) } }.toDF("nt", "src", "dst", "fresh")
    val cached = ListBuffer.empty[RDD[Block]]
    try {
      val (rows0, cells0) = pin(t0, names, cached)
      val (t, added) = Closure.run(rows0, Closure.capacity(graph, grammar))(_.unpersist(blocking = false))(rows =>
        pin(step(frame(spark, rows), byB(grammar, id)), names, cached))
      Relation.requireFits("T (all nonterminals)", cells0.values.sum + added.iterator.flatMap(_.values).sum)
      val rels = SparkBlockCFPQ.gather(t)((_, it) => it).iterator.flatMap { case (ntf, cells) => ntf.indices.map(i => (ntf(i) >> 1, cells(i))) }
      CFPQResult(rels.toSeq.groupMap(_._1)(_._2).map { case (i, cs) => names(i) -> Relation(cs.toArray) }, added.length, added)
    } finally cached.filter(_.getStorageLevel != StorageLevel.NONE).foreach(_.unpersist(blocking = false))
  }
}

object SparkDataFrameCFPQ {

  /** One partition of `T`: each row's `nt << 1 | fresh` and its [[Relation.pack]]ed cell. */
  type Block = (Array[Int], Array[Long])

  /** The rules `A → BC` as `b ↦ (a, c)` over nonterminal ids `id`. */
  private[repro] def byB(grammar: CnfGrammar, id: String => Int): Map[Int, Seq[(Int, Int)]] =
    grammar.binary.groupMap(r => id(r._2))(r => (id(r._1), id(r._3)))

  /** `T(nt, src, dst, fresh)` over pinned blocks. */
  private[repro] def frame(spark: SparkSession, blocks: RDD[Block]): DataFrame = {
    import spark.implicits._
    spark.createDataset(blocks.flatMap { case (ntf, cells) =>
      ntf.indices.iterator.map(i => (ntf(i) >> 1, (cells(i) >>> 32).toInt, cells(i).toInt, (ntf(i) & 1) == 1))
    }).toDF("nt", "src", "dst", "fresh")
  }

  /** Packs `t` into one block per partition, persisted and RDD-`localCheckpoint()`ed, and counts its fresh rows per
    * nonterminal in the job that fills the cache (no shuffle). `cached` gets the blocks first: a failed count frees them.
    */
  private[repro] def pin(t: DataFrame, names: IndexedSeq[String], cached: ListBuffer[RDD[Block]]): (RDD[Block], Map[String, Long]) = {
    val blocks = t.queryExecution.toRdd.mapPartitions { rows =>
      val (ntf, cells) = (Array.newBuilder[Int], Array.newBuilder[Long])
      rows.foreach { r => ntf += r.getInt(0) << 1 | (if (r.getBoolean(3)) 1 else 0); cells += Relation.pack(r.getInt(1), r.getInt(2)) }
      Iterator((ntf.result(), cells.result()))
    }
    cached += blocks.persist(StorageLevel.MEMORY_AND_DISK).localCheckpoint()
    val counts = SparkBlockCFPQ.gather(blocks)((_, it) => it.map(_._1.filter(_ % 2 == 1).groupMapReduce(_ >> 1)(_ => 1L)(_ + _)))
    (blocks, counts.flatten.groupMapReduce(c => names(c._1))(_._2)(_ + _))
  }

  /** The semi-naive Catalyst step of the class comment: `T'` from `T` and `byB`. */
  private[repro] def step(t: DataFrame, byB: Map[Int, Seq[(Int, Int)]]): DataFrame = {
    val l = t.select(col("src"), col("dst"), col("fresh"), explode(typedLit(byB).getItem(col("nt"))).as("ac"))
    val prod = l.as("l").join(t.as("r"), col("l.dst") === col("r.src") && col("r.nt") === col("l.ac._2") &&
      (col("l.fresh") || col("r.fresh"))).select(col("l.ac._1").as("nt"), col("l.src"), col("r.dst"), lit(0).as("old"))
    t.drop("fresh").withColumn("old", lit(1)).union(prod).groupBy("nt", "src", "dst").agg((max("old") === 0).as("fresh"))
  }
}
